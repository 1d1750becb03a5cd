package repro.bench

import repro.SparkSpec
import repro.experiments.Tables
import repro.graph.Datasets

/** Table 9 — PARABACUS speedup over ABACUS while varying the number of
  * partitions ("threads") at a fixed mini-batch of 10K edges (paper
  * Fig. 9). Expected shape: speedup grows with the partition count, and
  * larger samples profit more.
  */
class Table9ThreadSpeedupBench extends SparkSpec {

  test("Table 9: PARABACUS speedup vs partitions (paper Fig. 9)") {
    val rows = Tables.SpeedupThreads.run(spark)

    rows.groupBy(r => (r.dataset, r.k)).foreach { case ((d, k), rs) =>
      val at1 = rs.find(_.partitions == 1).get.speedup
      val at16 = rs.find(_.partitions == 16).get.speedup
      assert(at16 > at1, s"$d k=$k: p=16 ($at16) not faster than p=1 ($at1)")
    }

    // Where the per-batch work is largest, the parallel win must be clear.
    Datasets.all.foreach { d =>
      val rs = rows.filter(r => r.dataset == d.name && r.k == d.speedupSampleSizes.last)
      val at1 = rs.find(_.partitions == 1).get.speedup
      val at16 = rs.find(_.partitions == 16).get.speedup
      assert(at16 > at1 * 1.2,
        s"${d.name} k=${d.speedupSampleSizes.last}: p=16 ($at16) vs p=1 ($at1)")
    }

    // At the largest sample, 16 partitions must beat sequential ABACUS.
    Datasets.all.foreach { d =>
      val sp = rows.filter(r => r.dataset == d.name &&
        r.k == d.speedupSampleSizes.last && r.partitions == 16).head.speedup
      assert(sp > 1.2, s"${d.name}: p=16 speedup only $sp")
    }
  }
}
