package repro.bench

import repro.SparkSpec
import repro.experiments.Tables
import repro.graph.Datasets

/** Table 10 — per-partition workload: set-intersection checks accumulated
  * by each partition over the whole stream (paper Fig. 10: MovieLens vs
  * Orkut, 32 threads, M=10K). Expected shapes: near-uniform work across
  * partitions, and much more work per partition on the densest analog than
  * on the sparsest.
  */
class Table10LoadBalanceBench extends SparkSpec {

  private val datasets = Tables.LoadBalance.datasets
  private val partitions = Tables.LoadBalance.partitions

  test("Table 10: per-partition workload (paper Fig. 10)") {
    val rows = Tables.LoadBalance.run(spark)

    datasets.foreach { d =>
      val mine = rows.filter(_.dataset == d.name)
      assert(mine.size === partitions)
      val works = mine.map(_.work.toDouble)
      val mean = works.sum / works.size
      assert(mean > 0, s"${d.name}: no work recorded")
      // Balanced load: every partition within ±35% of the mean (the paper
      // shows near-equal bars; mini-batch remainders add noise here).
      works.foreach { w =>
        assert(math.abs(w - mean) < mean * 0.35,
          s"${d.name}: imbalanced partition work $w vs mean $mean")
      }
    }

    // Denser graph → more work per partition (paper: 90M vs 12.5M checks).
    val mlMean = rows.filter(_.dataset == "movielens-lite").map(_.work).sum / partitions
    val okMean = rows.filter(_.dataset == "orkut-lite").map(_.work).sum / partitions
    // Normalise by stream length: movielens must do more checks per edge.
    val mlPerEdge = mlMean.toDouble / Datasets.movielensLite.stream(0.2).size
    val okPerEdge = okMean.toDouble / Datasets.orkutLite.stream(0.2).size
    assert(mlPerEdge > okPerEdge,
      s"density-workload correlation broken: ml=$mlPerEdge orkut=$okPerEdge")
  }
}
