package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{Edge, ExactButterflyCounter}

class DatasetsSpec extends AnyFunSuite {

  // A miniature analog keeps the unit tests fast; the real analogs are
  // exercised (and their Table II printed) by the bench suites.
  private val tiny = LiteDataset("tiny", nL = 60, nR = 40, m = 500,
    alphaL = 0.7, alphaR = 0.7, seed = 1L,
    PaperStats(1, 1, 1, 1, 1))

  test("four analogs are registered in Table II order") {
    assert(Datasets.all.map(_.name) ===
      Seq("movielens-lite", "livejournal-lite", "trackers-lite", "orkut-lite"))
  }

  test("analog edge counts are ordered like the paper's |E| column") {
    val ms = Datasets.all.map(_.m)
    ms.sliding(2).foreach { case Seq(a, b) => assert(a < b) }
  }

  test("edges are cached and deterministic") {
    val a = tiny.edges
    val b = tiny.edges
    assert(a eq b, "expected the cached instance")
    assert(a.size === 500)
  }

  test("streams are cached per (alpha, seed)") {
    val a = tiny.stream(0.2)
    assert(a eq tiny.stream(0.2))
    assert(a !== tiny.stream(0.3))
    assert(a.size === 600)
  }

  test("exact final count is consistent with an independent recount") {
    val truth = tiny.exactFinalCount(0.2)
    val recount = {
      val c = new ExactButterflyCounter
      c.processAll(tiny.stream(0.2))
      c.count
    }
    assert(truth === recount)
    assert(truth > 0, "tiny analog must contain butterflies")
  }

  test("insert-only exact count equals the static count of all edges") {
    val viaStream = {
      val c = new ExactButterflyCounter
      c.processAll(TestGraphs.inserts(tiny.edges))
      c.count
    }
    assert(tiny.exactFinalCount(0.0) === viaStream)
  }

  test("stats reports the requested sizes and a positive density") {
    val s = Datasets.stats(tiny)
    assert(s.edges === 500L)
    assert(s.left > 0 && s.left <= 60)
    assert(s.right > 0 && s.right <= 40)
    assert(s.butterflies > 0)
    assert(s.butterflies === ExactButterflyCounter.countStatic(
      tiny.edges.iterator.map { case (l, r) => Edge(l, r) }))
    assert(s.density > 0)
  }

  test("sample-size ladders scale with |E|") {
    Datasets.all.foreach { d =>
      assert(d.sampleSizes === Seq(d.m / 100, d.m / 50, d.m / 25))
      assert(d.speedupSampleSizes === Seq(d.m / 20, d.m / 10, d.m / 5))
    }
  }

  test("paper reference stats are attached to every analog") {
    Datasets.all.foreach { d =>
      assert(d.paper.edges > 0 && d.paper.butterflies > 0 && d.paper.density > 0)
    }
  }
}
