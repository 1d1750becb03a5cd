package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables

/** Table 7 — elapsed time versus stream prefix length (paper Fig. 7, which
  * shows Trackers and Orkut). Expected shape: cumulative time grows
  * linearly with the number of processed elements, with a steeper slope for
  * larger sample sizes.
  */
class Table7ScalabilityBench extends AnyFunSuite {

  private val datasets = Tables.Scalability.datasets

  test("Table 7: ABACUS scales linearly with the stream size (paper Fig. 7)") {
    val rows = Tables.Scalability.run()

    rows.groupBy(r => (r.dataset, r.k)).foreach { case ((d, k), rs) =>
      val byPct = rs.map(r => r.fractionPct -> r.elapsedMs).toMap
      // Monotone cumulative time.
      (2 to 10).foreach(i => assert(byPct(i * 10) >= byPct((i - 1) * 10)))
      // Rough linearity: full-stream time between 1.3x and 3.5x the
      // half-stream time (2.0 is perfectly linear; JIT and GC add noise).
      val ratio = byPct(100) / byPct(50)
      assert(ratio > 1.3 && ratio < 3.5, s"$d k=$k: time(100%)/time(50%)=$ratio")
    }

    // Larger samples cost more overall.
    datasets.foreach { d =>
      val total = d.sampleSizes.map { k =>
        rows.find(r => r.dataset == d.name && r.k == k && r.fractionPct == 100).get.elapsedMs
      }
      assert(total.last > total.head,
        s"${d.name}: larger k not slower overall: $total")
    }
  }
}
