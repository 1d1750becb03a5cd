package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.StreamElement

class FleetSpec extends AnyFunSuite {

  test("exact while the reservoir never fills") {
    for (a <- 2 to 5) {
      val fleet = new Fleet(k = 1000, seed = 1L)
      fleet.processAll(TestGraphs.completeStream(a, a))
      assert(fleet.estimate === TestGraphs.completeBipartiteButterflies(a, a).toDouble,
        s"K_$a,$a")
      assert(fleet.samplingProbability === 1.0)
    }
  }

  test("reservoir stays below capacity and p decays on resize") {
    val fleet = new Fleet(k = 20, seed = 2L)
    (1 to 500).foreach(i => fleet.process(StreamElement.insert(i.toLong, 1L)))
    assert(fleet.reservoirSize < 20)
    assert(fleet.samplingProbability < 1.0)
  }

  test("deletions are counted as ignored and do not change the estimate") {
    val fleet = new Fleet(k = 100, seed = 3L)
    fleet.processAll(TestGraphs.completeStream(4, 4))
    val before = fleet.estimate
    (1 to 4).foreach(i => fleet.process(StreamElement.delete(i.toLong, i.toLong)))
    assert(fleet.estimate === before)
    assert(fleet.deletionsIgnored === 4L)
  }

  test("ignoring deletions overestimates on heavy-deletion streams") {
    // Insert K_{8,8}, delete most of it: the true final count collapses but
    // FLEET's estimate keeps the butterflies of deleted edges.
    val edges = TestGraphs.completeBipartite(8, 8)
    val stream = TestGraphs.inserts(edges) ++
      edges.take(50).map { case (l, r) => StreamElement.delete(l, r) }
    val truth = {
      val c = new repro.core.ExactButterflyCounter
      c.processAll(stream)
      c.count.toDouble
    }
    val fleet = new Fleet(k = 1000, seed = 4L)
    fleet.processAll(stream)
    assert(fleet.estimate > truth * 2,
      s"expected gross overestimate: fleet=${fleet.estimate} truth=$truth")
  }

  test("approximately unbiased on insert-only streams (Monte-Carlo)") {
    val stream = TestGraphs.completeStream(7, 7) // 441 butterflies
    val truth = TestGraphs.completeBipartiteButterflies(7, 7).toDouble
    val trials = 400
    val mean = (1 to trials).map { s =>
      new Fleet(k = 25, seed = s.toLong).processAll(stream)
    }.sum / trials
    assert(math.abs(mean - truth) / truth < 0.2, s"mean=$mean truth=$truth")
  }

  test("deterministic in seed") {
    val stream = TestGraphs.randomStream(15, 15, 150, 0.0, 5L)
    def run(seed: Long) = new Fleet(30, seed).processAll(stream)
    assert(run(9L) === run(9L))
  }

  test("invalid parameters are rejected") {
    intercept[IllegalArgumentException](new Fleet(1, 1L))
  }
}
