package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables

/** Table II — dataset statistics of the four synthetic analogs, printed
  * next to the paper's numbers for the originals (EXPERIMENTS.md records
  * the diff). Shape checks: the |E| ordering and the butterfly-density
  * ordering must match the paper.
  */
class Table2DatasetStatsBench extends AnyFunSuite {

  test("Table 2: dataset statistics (paper Table II)") {
    val stats = Tables.DatasetStatistics.run()

    // |E| strictly increasing, as in the paper's Table II ordering.
    stats.map(_.edges).sliding(2).foreach { case Seq(a, b) => assert(a < b) }

    // Butterfly-density ordering: movielens > trackers > livejournal > orkut.
    val byName = stats.map(s => s.name -> s.density).toMap
    assert(byName("movielens-lite") > byName("trackers-lite"))
    assert(byName("trackers-lite") > byName("livejournal-lite"))
    assert(byName("livejournal-lite") > byName("orkut-lite"))

    // Every analog must be butterfly-rich enough for sampling estimates.
    stats.foreach(s => assert(s.butterflies > 1000000L, s"${s.name} too sparse"))
  }
}
