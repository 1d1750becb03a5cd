package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{Abacus, StreamElement}

class CasSpec extends AnyFunSuite {

  test("exact while the reservoir holds the whole stream") {
    for (a <- 2 to 5) {
      val cas = new Cas(k = 1000, seed = 1L)
      cas.processAll(TestGraphs.completeStream(a, a))
      assert(cas.estimate === TestGraphs.completeBipartiteButterflies(a, a).toDouble,
        s"K_$a,$a")
    }
  }

  test("only (1−λ) of the budget funds the edge reservoir") {
    val cas = new Cas(k = 300, seed = 2L)
    assert(cas.reservoirCapacity === ((1.0 - 0.33) * 300).toInt)
    (1 to 2000).foreach(i => cas.process(StreamElement.insert(i.toLong, 1L)))
    assert(cas.reservoirSize === cas.reservoirCapacity)
  }

  test("the AMS sketch is updated per insertion") {
    val cas = new Cas(k = 300, seed = 3L)
    assert(cas.sketchF2 === 0.0)
    (1 to 50).foreach(i => cas.process(StreamElement.insert(i.toLong, i.toLong)))
    assert(cas.sketchF2 > 0.0)
  }

  test("deletions are counted as ignored and do not change the estimate") {
    val cas = new Cas(k = 200, seed = 4L)
    cas.processAll(TestGraphs.completeStream(4, 4))
    val before = cas.estimate
    (1 to 4).foreach(i => cas.process(StreamElement.delete(i.toLong, i.toLong)))
    assert(cas.estimate === before)
    assert(cas.deletionsIgnored === 4L)
  }

  test("ignoring deletions overestimates on heavy-deletion streams") {
    val edges = TestGraphs.completeBipartite(8, 8)
    val stream = TestGraphs.inserts(edges) ++
      edges.take(50).map { case (l, r) => StreamElement.delete(l, r) }
    val truth = {
      val c = new repro.core.ExactButterflyCounter
      c.processAll(stream)
      c.count.toDouble
    }
    val cas = new Cas(k = 1000, seed = 5L)
    cas.processAll(stream)
    assert(cas.estimate > truth * 2,
      s"expected gross overestimate: cas=${cas.estimate} truth=$truth")
  }

  test("approximately unbiased on insert-only streams (Monte-Carlo)") {
    val stream = TestGraphs.completeStream(7, 7)
    val truth = TestGraphs.completeBipartiteButterflies(7, 7).toDouble
    val trials = 400
    val mean = (1 to trials).map { s =>
      new Cas(k = 40, seed = s.toLong).processAll(stream)
    }.sum / trials
    assert(math.abs(mean - truth) / truth < 0.2, s"mean=$mean truth=$truth")
  }

  /** The estimate of an ABACUS over CAS-R's reservoir capacity, fed only
    * the insertions of `stream`.
    */
  private def abacusOnInserts(cas: Cas, seed: Long, stream: Seq[StreamElement]): Double =
    new Abacus(cas.reservoirCapacity, seed).processAll(stream.filter(_.isInsert))

  test("equals ABACUS over the reservoir capacity fed the insertions of a fully dynamic stream") {
    val stream = TestGraphs.randomStream(15, 15, 150, 0.3, 7L)
    val cas = new Cas(k = 100, seed = 8L)
    assert(cas.processAll(stream) === abacusOnInserts(cas, 8L, stream))
    assert(cas.deletionsIgnored === stream.count(!_.isInsert).toLong)
  }

  test("equals ABACUS over the reservoir capacity once the reservoir fills and replaces edges") {
    val stream = TestGraphs.randomStream(30, 30, 600, 0.0, 9L)
    (1 to 5).foreach { seed =>
      val cas = new Cas(k = 60, seed = seed.toLong)
      assert(cas.processAll(stream) === abacusOnInserts(cas, seed.toLong, stream), s"seed $seed")
      assert(cas.reservoirSize === cas.reservoirCapacity)
      assert(cas.estimate > 0.0)
    }
  }

  test("a duplicate insert of a sampled edge changes nothing") {
    val cas = new Cas(k = 300, seed = 10L)
    cas.processAll(TestGraphs.completeStream(4, 4))
    val (est, size, f2) = (cas.estimate, cas.reservoirSize, cas.sketchF2)
    cas.process(StreamElement.insert(1L, 1L))
    assert(cas.estimate === est)
    assert(cas.reservoirSize === size)
    assert(cas.sketchF2 === f2)
  }

  test("deterministic in seed") {
    val stream = TestGraphs.randomStream(15, 15, 150, 0.0, 6L)
    def run(seed: Long) = new Cas(50, seed).processAll(stream)
    assert(run(9L) === run(9L))
  }

  test("invalid parameters are rejected") {
    intercept[IllegalArgumentException](new Cas(2, 1L))
  }
}
