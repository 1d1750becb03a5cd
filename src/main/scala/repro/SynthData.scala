package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Seeded bipartite graph generators: a zipf rank sampler and a
  * Chung–Lu-style generator of distinct edges, on the driver or as a
  * DataFrame. Deterministic in their arguments, so the DuckDB oracle and
  * the Spark SQL counter see identical input.
  */
object SynthData {

  /** Seeded zipf sampler over ranks 1..n with exponent `alpha ≥ 0`
    * (alpha = 0 is uniform). Uses an exact inverse-CDF over precomputed
    * prefix sums, so draws are deterministic in (n, alpha, seed).
    */
  final class ZipfSampler(n: Int, alpha: Double) {
    require(n >= 1, "need at least one rank")
    private val cdf: Array[Double] = {
      val w = new Array[Double](n)
      var i = 0
      var acc = 0.0
      while (i < n) { acc += 1.0 / math.pow(i + 1.0, alpha); w(i) = acc; i += 1 }
      var j = 0
      while (j < n) { w(j) /= acc; j += 1 }
      w
    }

    /** Draw a rank in [1, n]; hubs are the low ranks. */
    def draw(rng: java.util.SplittableRandom): Int = {
      val u = rng.nextDouble()
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cdf(mid) < u) lo = mid + 1 else hi = mid
      }
      lo + 1
    }
  }

  /** Generate `m` *distinct* bipartite edges (left, right) with zipf-skewed
    * endpoint popularity — a Chung–Lu-style stand-in for real bipartite
    * graphs (KONECT datasets are unavailable offline; see DESIGN.md).
    *
    * Left ranks are drawn with exponent `alphaL` over `nL` vertices, right
    * ranks with `alphaR` over `nR`. Higher exponents yield hubbier sides,
    * which drives up the butterfly density. Deterministic in all arguments.
    * Edge order is the generation (arrival) order.
    */
  def bipartiteEdgesLocal(nL: Int, nR: Int, m: Int,
                          alphaL: Double, alphaR: Double,
                          seed: Long): Array[(Long, Long)] = {
    require(m.toLong <= nL.toLong * nR, s"cannot fit $m distinct edges in $nL x $nR")
    val rng = new java.util.SplittableRandom(seed)
    val zl = new ZipfSampler(nL, alphaL)
    val zr = new ZipfSampler(nR, alphaR)
    val seen = new java.util.HashSet[Long](m * 2)
    val out = new Array[(Long, Long)](m)
    var count = 0
    while (count < m) {
      val l = zl.draw(rng).toLong
      val r = zr.draw(rng).toLong
      val key = l * (nR + 1L) + r
      if (seen.add(key)) { out(count) = (l, r); count += 1 }
    }
    out
  }

  /** DataFrame view of [[bipartiteEdgesLocal]] with columns (l, r) —
    * for Spark SQL exact counting and DuckDB oracle checks.
    */
  def bipartiteEdges(spark: SparkSession, nL: Int, nR: Int, m: Int,
                     alphaL: Double, alphaR: Double, seed: Long): DataFrame = {
    import spark.implicits._
    spark.createDataset(
      bipartiteEdgesLocal(nL, nR, m, alphaL, alphaR, seed).toIndexedSeq
    ).toDF("l", "r")
  }
}
