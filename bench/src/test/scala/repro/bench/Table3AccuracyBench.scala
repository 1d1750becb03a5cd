package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables
import repro.graph.Datasets

/** Table 3 — relative error with 20% deletions while varying the sample
  * size (paper Fig. 3). Expected shapes: ABACUS beats the deletion-blind
  * FLEET/CAS on every dataset, and its error shrinks as k grows.
  */
class Table3AccuracyBench extends AnyFunSuite {

  test("Table 3: relative error with alpha=20% (paper Fig. 3)") {
    val rows = Tables.AccuracyDeletions.run()

    // ABACUS must beat both baselines on every dataset (averaged over k —
    // the baselines ignore the 20% deletions entirely).
    Datasets.all.map(_.name).foreach { d =>
      def avg(alg: String) = {
        val es = rows.filter(r => r.dataset == d && r.algorithm == alg).map(_.relError)
        es.sum / es.size
      }
      assert(avg("abacus") < avg("fleet"), s"$d: abacus not better than fleet")
      assert(avg("abacus") < avg("cas"), s"$d: abacus not better than cas")
    }

    // Error shrinks with the sample size (largest k vs smallest k).
    Datasets.all.foreach { d =>
      val ab = rows.filter(r => r.dataset == d.name && r.algorithm == "abacus")
      val small = ab.find(_.k == d.sampleSizes.head).get.relError
      val large = ab.find(_.k == d.sampleSizes.last).get.relError
      assert(large < small, s"${d.name}: error did not shrink with k ($small -> $large)")
      assert(large < 0.15, s"${d.name}: error at largest k too high: $large")
    }
  }
}
