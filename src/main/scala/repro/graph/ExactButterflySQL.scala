package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Exact butterfly counting in Spark SQL (Catalyst) over an edge DataFrame
  * with columns (l, r).
  *
  * A butterfly is a pair of wedges: for every pair of right vertices
  * (r1 < r2) with `cn` common left-neighbours there are C(cn, 2)
  * butterflies, so |B| = Σ C(cn, 2) — and symmetrically via left pairs.
  * The enumeration side is chosen by the smaller Σ d² (the cheapest-side
  * idea of [28] applied at the batch level).
  *
  * The same query text (with explicit casts, since the oracle stages tables
  * as VARCHAR) runs on DuckDB via [[repro.Oracle]] in the tests.
  */
object ExactButterflySQL {

  /** Butterfly count as a one-row DataFrame (column `butterflies`),
    * joining the edges on the `pivot` column ("l" or "r") and enumerating
    * pairs of vertices of the other side that share a pivot vertex.
    */
  def butterflyDf(edges: DataFrame, pivot: String): DataFrame = {
    val other = if (pivot == "l") "r" else "l"
    val e1 = edges.select(col(pivot), col(other).as("v1"))
    val e2 = edges.select(col(pivot), col(other).as("v2"))
    e1.join(e2, e1(pivot) === e2(pivot) && col("v1") < col("v2"))
      .groupBy(col("v1"), col("v2"))
      .agg(count(lit(1)).as("cn"))
      .agg(coalesce(sum(col("cn") * (col("cn") - 1)), lit(0L)).as("s"))
      .select((col("s") / 2).cast("long").as("butterflies"))
  }

  /** Σ d² of the given key column — the pair-enumeration cost of that side. */
  private def sumSquaredDegrees(edges: DataFrame, key: String): Double =
    edges.groupBy(col(key)).agg(count(lit(1)).as("d"))
      .agg(coalesce(sum(col("d") * col("d")), lit(0L)))
      .head().getLong(0).toDouble

  /** Exact butterfly count, enumerating on the cheaper side. */
  def butterflies(edges: DataFrame): Long = {
    val pivot = if (sumSquaredDegrees(edges, "l") <= sumSquaredDegrees(edges, "r")) "l" else "r"
    butterflyDf(edges, pivot).head().getLong(0)
  }

  /** DuckDB-compatible SQL equivalent of `butterflyDf(edges, "l")` over a
    * table `edges(l VARCHAR, r VARCHAR)` staged by the oracle.
    */
  val oracleSqlViaLeftJoin: String =
    """SELECT CAST(COALESCE(SUM(cn * (cn - 1)), 0) / 2 AS BIGINT) AS butterflies
      |FROM (
      |  SELECT CAST(e1.r AS BIGINT) AS r1, CAST(e2.r AS BIGINT) AS r2,
      |         COUNT(*) AS cn
      |  FROM edges e1
      |  JOIN edges e2
      |    ON CAST(e1.l AS BIGINT) = CAST(e2.l AS BIGINT)
      |   AND CAST(e1.r AS BIGINT) < CAST(e2.r AS BIGINT)
      |  GROUP BY 1, 2
      |) w
      |""".stripMargin

  /** Graph statistics (our Table II row) via Spark SQL, as a DataFrame with
    * columns (edges, left_vertices, right_vertices).
    */
  def sizeStatsDf(edges: DataFrame): DataFrame =
    edges.agg(
      count(lit(1)).as("edges"),
      countDistinct(col("l")).as("left_vertices"),
      countDistinct(col("r")).as("right_vertices"),
    )

  /** DuckDB-compatible SQL equivalent of [[sizeStatsDf]]. */
  val oracleSizeStatsSql: String =
    """SELECT COUNT(*) AS edges,
      |       COUNT(DISTINCT l) AS left_vertices,
      |       COUNT(DISTINCT r) AS right_vertices
      |FROM edges
      |""".stripMargin
}
