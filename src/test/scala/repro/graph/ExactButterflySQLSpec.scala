package repro.graph

import repro.{Oracle, SparkSpec, SynthData, TestGraphs}
import repro.core.{Edge, ExactButterflyCounter}

class ExactButterflySQLSpec extends SparkSpec {

  private def edgesDf(edges: Seq[(Long, Long)]) = {
    import spark.implicits._
    edges.toDF("l", "r")
  }

  test("SQL count matches closed form on complete bipartite graphs") {
    for (a <- 2 to 5; b <- 2 to 4) {
      val df = edgesDf(TestGraphs.completeBipartite(a, b))
      assert(ExactButterflySQL.butterflies(df) ===
        TestGraphs.completeBipartiteButterflies(a, b), s"K_$a,$b")
    }
  }

  test("SQL count is zero on butterfly-free graphs") {
    assert(ExactButterflySQL.butterflies(edgesDf(TestGraphs.butterflyFreeEdges)) === 0L)
  }

  test("SQL count is zero on an empty edge set") {
    assert(ExactButterflySQL.butterflies(edgesDf(Nil)) === 0L)
  }

  test("left-join and right-join formulations agree") {
    (1 to 5).foreach { trial =>
      val edges = TestGraphs.randomEdges(15, 12, 80, trial.toLong)
      val df = edgesDf(edges)
      val viaL = ExactButterflySQL.butterflyDf(df, "l").head().getLong(0)
      val viaR = ExactButterflySQL.butterflyDf(df, "r").head().getLong(0)
      assert(viaL === viaR, s"trial $trial")
    }
  }

  test("SQL count matches the incremental exact counter on random graphs") {
    (1 to 8).foreach { trial =>
      val edges = TestGraphs.randomEdges(20, 15, 120, 100L + trial)
      val sql = ExactButterflySQL.butterflies(edgesDf(edges))
      val inc = ExactButterflyCounter.countStatic(
        edges.iterator.map { case (l, r) => Edge(l, r) })
      assert(sql === inc, s"trial $trial")
    }
  }

  test("oracle: Spark butterfly count equals DuckDB on random graphs") {
    (1 to 3).foreach { trial =>
      val df = edgesDf(TestGraphs.randomEdges(15, 12, 90, 200L + trial))
      Oracle.assertEquivalent(
        ExactButterflySQL.butterflyDf(df, "l"),
        ExactButterflySQL.oracleSqlViaLeftJoin,
        "edges" -> df)
    }
  }

  test("oracle: Spark butterfly count equals DuckDB on a complete bipartite graph") {
    val df = edgesDf(TestGraphs.completeBipartite(5, 4))
    Oracle.assertEquivalent(
      ExactButterflySQL.butterflyDf(df, "l"),
      ExactButterflySQL.oracleSqlViaLeftJoin,
      "edges" -> df)
  }

  test("oracle: Spark size stats equal DuckDB") {
    val df = edgesDf(TestGraphs.randomEdges(25, 18, 150, 300L))
    Oracle.assertEquivalent(
      ExactButterflySQL.sizeStatsDf(df),
      ExactButterflySQL.oracleSizeStatsSql,
      "edges" -> df)
  }

  test("oracle: generated lite-style graph stats equal DuckDB") {
    // A miniature of the dataset-analog generation path, end to end.
    val df = SynthData.bipartiteEdges(spark, 100, 60, 800, 0.8, 0.8, 77L)
    Oracle.assertEquivalent(
      ExactButterflySQL.sizeStatsDf(df),
      ExactButterflySQL.oracleSizeStatsSql,
      "edges" -> df)
    Oracle.assertEquivalent(
      ExactButterflySQL.butterflyDf(df, "l"),
      ExactButterflySQL.oracleSqlViaLeftJoin,
      "edges" -> df)
  }

  test("SQL count on the survivors of a dynamic stream matches the incremental counter") {
    val stream = TestGraphs.randomStream(15, 15, 100, 0.3, 5L)
    val exact = new ExactButterflyCounter
    exact.processAll(stream)
    val survivors = StreamGen.finalEdges(stream).toSeq.map(e => (e.left, e.right))
    assert(ExactButterflySQL.butterflies(edgesDf(survivors)) === exact.count)
  }
}
