package repro.bench

import repro.SparkSpec
import repro.experiments.Tables
import repro.graph.Datasets

/** Table 8 — PARABACUS speedup over ABACUS while varying the mini-batch
  * size, on Spark `local[*]` over the machine's cores (paper Fig. 8, 40
  * threads). Expected shapes:
  * speedup grows with the mini-batch size and with the sample size, and the
  * butterfly-dense analogs gain the most. Absolute values are below the
  * paper's because one Spark job per mini-batch costs milliseconds where a
  * Java thread pool costs microseconds (see EXPERIMENTS.md).
  */
class Table8MinibatchSpeedupBench extends SparkSpec {

  private val miniBatches = Tables.SpeedupMinibatch.miniBatches

  test("Table 8: PARABACUS speedup vs mini-batch size (paper Fig. 8)") {
    val rows = Tables.SpeedupMinibatch.run(spark)

    // Speedup grows with the mini-batch size for every (dataset, k).
    rows.groupBy(r => (r.dataset, r.k)).foreach { case ((d, k), rs) =>
      val atSmall = rs.find(_.miniBatch == miniBatches.head).get.speedup
      val atLarge = rs.find(_.miniBatch == miniBatches.last).get.speedup
      assert(atLarge > atSmall, s"$d k=$k: speedup not increasing in M")
    }

    // At the largest (k, M), parallelism must genuinely pay off.
    Datasets.all.foreach { d =>
      val best = rows.filter(r => r.dataset == d.name &&
        r.k == d.speedupSampleSizes.last && r.miniBatch == miniBatches.last)
        .head.speedup
      assert(best > 1.5, s"${d.name}: best speedup only $best")
    }

    // Larger samples mean larger per-edge work and thus better speedup
    // (paper §VI-G), comparing the extremes at the largest mini-batch.
    Datasets.all.foreach { d =>
      def sp(k: Int) = rows.filter(r => r.dataset == d.name && r.k == k &&
        r.miniBatch == miniBatches.last).head.speedup
      assert(sp(d.speedupSampleSizes.last) > sp(d.speedupSampleSizes.head),
        s"${d.name}: speedup not increasing in k")
    }
  }
}
