package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.{Experiments, Tables}
import repro.graph.Datasets

/** Table 5 — relative error on insert-only streams, α=0% (paper Fig. 5).
  * Expected shape: without deletions ABACUS is at least comparable to the
  * insert-only specialists FLEET and CAS, and errors shrink with k.
  */
class Table5InsertOnlyBench extends AnyFunSuite {

  test("Table 5: relative error on insert-only streams (paper Fig. 5)") {
    val rows = Tables.AccuracyInsertOnly.run()

    // ABACUS keeps up with the insert-only specialists: averaged over k it
    // must not be more than 2x worse than FLEET (it is often better —
    // FLEET's resizing keeps its reservoir only ~75-100% full).
    Datasets.all.map(_.name).foreach { d =>
      def avg(alg: String) = {
        val es = rows.filter(r => r.dataset == d && r.algorithm == alg).map(_.relError)
        es.sum / es.size
      }
      assert(avg("abacus") < avg("fleet") * 2 + 0.02,
        s"$d: abacus=${avg("abacus")} fleet=${avg("fleet")}")
      assert(avg("abacus") < avg("cas") * 2 + 0.02,
        s"$d: abacus=${avg("abacus")} cas=${avg("cas")}")
    }

    // Error shrinks with the sample size for every algorithm, on average
    // across datasets (per-dataset runs are noisy at 5 trials).
    Experiments.Algorithms.foreach { alg =>
      def meanAt(sel: repro.graph.LiteDataset => Int): Double = {
        val es = Datasets.all.map { d =>
          rows.find(r => r.dataset == d.name && r.algorithm == alg && r.k == sel(d)).get.relError
        }
        es.sum / es.size
      }
      val small = meanAt(_.sampleSizes.head)
      val large = meanAt(_.sampleSizes.last)
      assert(large < small, s"$alg: error did not shrink with k ($small -> $large)")
    }
  }
}
