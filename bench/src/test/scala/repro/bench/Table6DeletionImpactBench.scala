package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables
import repro.graph.Datasets

/** Table 6 — impact of the deletion ratio α on ABACUS's accuracy and
  * throughput at a fixed sample size (paper Fig. 6). Expected shapes:
  * error stays small and roughly flat in α; throughput per dataset stays
  * roughly constant in α.
  */
class Table6DeletionImpactBench extends AnyFunSuite {

  test("Table 6: impact of deletions (paper Fig. 6)") {
    val rows = Tables.DeletionImpact.run()

    Datasets.all.map(_.name).foreach { d =>
      val mine = rows.filter(_.dataset == d)
      // Paper: "relative error in all of our datasets is less than 8%";
      // allow headroom for the 1/1000-scale analogs at 3 trials.
      mine.foreach(r => assert(r.relError < 0.25,
        s"$d alpha=${r.alpha}: error ${r.relError} too high"))
      // Throughput roughly flat across alphas (within 3x band).
      val thr = mine.map(_.edgesPerSec)
      assert(thr.max / thr.min < 3.0,
        s"$d: throughput varies too much across alpha: $thr")
    }
  }
}
