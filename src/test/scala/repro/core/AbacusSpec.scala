package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class AbacusSpec extends AnyFunSuite {

  test("estimate starts at zero") {
    assert(new Abacus(10, 1L).estimate === 0.0)
  }

  test("estimate is exact while the sample holds the whole stream (insert-only)") {
    for (a <- 2 to 5; b <- 2 to 5) {
      val abacus = new Abacus(k = 1000, seed = 1L)
      abacus.processAll(TestGraphs.completeStream(a, b))
      assert(abacus.estimate === TestGraphs.completeBipartiteButterflies(a, b).toDouble,
        s"K_$a,$b")
    }
  }

  test("estimate is exact with a big budget on fully dynamic streams") {
    // With k ≥ |stream|, p = 1 at every step, so the estimate telescopes to
    // the true count — including through deletions (strong end-to-end check
    // of the counting + RP + increment plumbing).
    (1 to 25).foreach { trial =>
      val stream = TestGraphs.randomStream(10, 10, 60, 0.3, trial.toLong)
      val abacus = new Abacus(k = 10000, seed = trial.toLong)
      val exact = new ExactButterflyCounter
      stream.foreach { el =>
        abacus.process(el)
        exact.process(el)
        assert(math.abs(abacus.estimate - exact.count) < 1e-6,
          s"trial $trial diverged mid-stream: ${abacus.estimate} vs ${exact.count}")
      }
    }
  }

  test("butterfly-free streams estimate exactly zero at any budget") {
    for (k <- Seq(2, 3, 10)) {
      val abacus = new Abacus(k, seed = 5L)
      abacus.processAll(
        TestGraphs.butterflyFreeEdges.map { case (l, r) => StreamElement.insert(l, r) })
      assert(abacus.estimate === 0.0, s"k=$k")
    }
  }

  test("insert-everything-then-delete-everything returns the estimate to zero (big budget)") {
    val edges = TestGraphs.completeBipartite(4, 4)
    val abacus = new Abacus(k = 1000, seed = 2L)
    edges.foreach { case (l, r) => abacus.process(StreamElement.insert(l, r)) }
    assert(abacus.estimate === TestGraphs.completeBipartiteButterflies(4, 4).toDouble)
    edges.foreach { case (l, r) => abacus.process(StreamElement.delete(l, r)) }
    assert(math.abs(abacus.estimate) < 1e-9)
  }

  test("sample size never exceeds the budget") {
    val abacus = new Abacus(k = 7, seed = 3L)
    TestGraphs.randomStream(20, 20, 200, 0.2, 9L).foreach { el =>
      abacus.process(el)
      assert(abacus.sampleSize <= 7)
    }
  }

  test("processed and streamEdgeCount bookkeeping") {
    val stream = TestGraphs.randomStream(10, 10, 50, 0.2, 4L)
    val abacus = new Abacus(k = 20, seed = 1L)
    abacus.processAll(stream)
    assert(abacus.processed === stream.size.toLong)
    val ins = stream.count(_.isInsert)
    val del = stream.size - ins
    assert(abacus.streamEdgeCount === (ins - del).toLong)
  }

  test("estimates are deterministic in the seed") {
    val stream = TestGraphs.randomStream(15, 15, 120, 0.25, 6L)
    def run(seed: Long) = new Abacus(8, seed).processAll(stream)
    assert(run(11L) === run(11L))
  }

  test("different seeds explore different samples") {
    val stream = TestGraphs.completeStream(8, 8)
    val ests = (1 to 10).map(s => new Abacus(6, s.toLong).processAll(stream)).toSet
    assert(ests.size > 1, "all seeds produced identical estimates")
  }

  test("unbiasedness (Theorem 1): Monte-Carlo mean approaches the true count, insert-only") {
    val stream = TestGraphs.completeStream(6, 6)
    val truth = TestGraphs.completeBipartiteButterflies(6, 6).toDouble // 225
    val trials = 600
    val mean = (1 to trials).map(s => new Abacus(12, s.toLong).processAll(stream)).sum / trials
    assert(math.abs(mean - truth) / truth < 0.12,
      s"insert-only bias: mean=$mean truth=$truth")
  }

  test("unbiasedness (Theorem 1): Monte-Carlo mean approaches the true count, fully dynamic") {
    val stream = TestGraphs.randomStream(12, 12, 120, 0.25, 13L)
    val exact = new ExactButterflyCounter
    exact.processAll(stream)
    val truth = exact.count.toDouble
    assert(truth > 0, "fixture must contain butterflies")
    val trials = 600
    val mean = (1 to trials).map(s => new Abacus(40, s.toLong).processAll(stream)).sum / trials
    assert(math.abs(mean - truth) / truth < 0.15,
      s"fully dynamic bias: mean=$mean truth=$truth")
  }

  test("accuracy improves with the sample size on average") {
    val stream = TestGraphs.completeStream(10, 10) // 2025 butterflies
    val truth = TestGraphs.completeBipartiteButterflies(10, 10).toDouble
    def meanErr(k: Int): Double = {
      val errs = (1 to 80).map { s =>
        math.abs(new Abacus(k, s.toLong).processAll(stream) - truth) / truth
      }
      errs.sum / errs.size
    }
    assert(meanErr(80) < meanErr(10),
      s"error did not shrink with k: k=80 → ${meanErr(80)}, k=10 → ${meanErr(10)}")
  }

  test("per-edge step adds each butterfly at sgn/Pr of the given RP state") {
    import TestGraphs.Fig1b
    val view = new AdjacencySample
    Fig1b.sampleEdges.foreach(view.add)
    val probes = ButterflyCounter.countForEdge(view, Fig1b.u, Fig1b.v).work
    val tally = new Abacus.Tally
    def weight(sign: Int) =
      DiscoveryProbability.increment(sign, numEdges = 10L, cb = 1L, cg = 2L, k = 5)
    // Deletion with |E|=10, c_b=1, c_g=2, k=5: Pr = 5/13 · 4/12 · 3/11.
    tally.countEdge(view, Fig1b.u, Fig1b.v, weight(-1))
    assert(math.abs(tally.estimate + 13.0 * 12 * 11 / (5 * 4 * 3)) < 1e-9)
    assert(tally.found === Fig1b.expectedButterflies)
    assert(tally.work === probes)
    // The matching insertion cancels it; an edge without butterflies adds nothing.
    tally.countEdge(view, Fig1b.u, Fig1b.v, weight(1))
    tally.countEdge(view, 99L, 99L, weight(1))
    assert(tally.estimate === 0.0)
    assert(tally.found === 2 * Fig1b.expectedButterflies)
    assert(tally.work === 2 * probes)
  }

  test("work accounting accumulates") {
    val abacus = new Abacus(k = 1000, seed = 1L)
    abacus.processAll(TestGraphs.completeStream(6, 6))
    assert(abacus.totalWork > 0L)
    assert(abacus.totalFound === TestGraphs.completeBipartiteButterflies(6, 6))
  }
}
