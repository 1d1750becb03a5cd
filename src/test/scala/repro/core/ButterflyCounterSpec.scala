package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class ButterflyCounterSpec extends AnyFunSuite {

  private def viewOf(edges: Iterable[Edge]): AdjacencySample = {
    val s = new AdjacencySample
    edges.foreach(s.add)
    s
  }

  test("empty view yields zero butterflies and zero work") {
    val r = ButterflyCounter.countForEdge(new AdjacencySample, 1L, 2L)
    assert(r === ButterflyCounter.Result(0L, 0L))
  }

  test("running example of Fig. 1b finds exactly one butterfly") {
    val s = viewOf(TestGraphs.Fig1b.sampleEdges)
    val r = ButterflyCounter.countForEdge(s, TestGraphs.Fig1b.u, TestGraphs.Fig1b.v)
    assert(r.butterflies === TestGraphs.Fig1b.expectedButterflies)
  }

  test("single wedge is not a butterfly") {
    // Sample: (1,10), (2,10). Incoming (1, 20): needs (2,20) to close.
    val s = viewOf(Seq(Edge(1L, 10L), Edge(2L, 10L)))
    assert(ButterflyCounter.countForEdge(s, 1L, 20L).butterflies === 0L)
  }

  test("three sides of a square complete to one butterfly") {
    val s = viewOf(Seq(Edge(1L, 10L), Edge(2L, 10L), Edge(2L, 20L)))
    assert(ButterflyCounter.countForEdge(s, 1L, 20L).butterflies === 1L)
  }

  test("each incoming K_{a,b} edge closes C(a-1,1)*C(b-1,1) butterflies when the rest is present") {
    for (a <- 2 to 5; b <- 2 to 5) {
      val all = TestGraphs.completeBipartite(a, b).map { case (l, r) => Edge(l, r) }
      val incoming = all.head
      val s = viewOf(all.tail)
      val r = ButterflyCounter.countForEdge(s, incoming.left, incoming.right)
      assert(r.butterflies === (a - 1).toLong * (b - 1),
        s"K_$a,$b: got ${r.butterflies}")
    }
  }

  test("deletion case: edge present in the view does not corrupt the count") {
    // Full K_{3,3} in view; counting for edge (1,1) while it is resident
    // must still report the 4 butterflies containing it.
    val s = viewOf(TestGraphs.completeBipartite(3, 3).map { case (l, r) => Edge(l, r) })
    val r = ButterflyCounter.countForEdge(s, 1L, 1L)
    assert(r.butterflies === 4L)
  }

  test("count is symmetric in the exploration side") {
    // Force each side to be cheaper in turn by skewing degrees.
    val edges = Seq(
      Edge(1L, 10L), Edge(1L, 11L), Edge(1L, 12L),
      Edge(2L, 10L), Edge(2L, 11L),
      Edge(3L, 10L))
    val s = viewOf(edges)
    // Butterflies formed with incoming (3, 11): needs x with (x,11),(x,10):
    // x ∈ {1, 2} → 2 butterflies.
    assert(ButterflyCounter.countForEdge(s, 3L, 11L).butterflies === 2L)
    // Mirror the graph to flip which side is cheaper; count must mirror.
    val mirrored = viewOf(edges.map(e => Edge(e.right, e.left)))
    assert(ButterflyCounter.countForEdge(mirrored, 11L, 3L).butterflies === 2L)
  }

  test("work accounting is positive whenever sets are intersected") {
    val s = viewOf(Seq(Edge(1L, 10L), Edge(2L, 10L), Edge(2L, 20L)))
    val r = ButterflyCounter.countForEdge(s, 1L, 20L)
    assert(r.work > 0L)
  }

  test("work is zero when an endpoint has no sampled neighbours") {
    val s = viewOf(Seq(Edge(1L, 10L)))
    assert(ButterflyCounter.countForEdge(s, 5L, 20L).work === 0L)
  }

  test("disjoint butterflies not containing the edge are not counted") {
    // K_{2,2} on {5,6}×{50,60} plus a lone wedge at the incoming edge.
    val s = viewOf(Seq(Edge(5L, 50L), Edge(5L, 60L), Edge(6L, 50L), Edge(6L, 60L),
      Edge(1L, 10L)))
    assert(ButterflyCounter.countForEdge(s, 1L, 20L).butterflies === 0L)
  }

  test("matches brute force on random samples") {
    (1 to 60).foreach { trial =>
      // Trials past 30 shift the ids (1..8) to -3..4 on both sides, so 0L
      // (the empty-slot marker of LongSet) and negatives are vertices.
      val shift = if (trial > 30) -4L else 0L
      val edges = TestGraphs.randomEdges(8, 8, 20, trial.toLong)
        .map { case (l, r) => Edge(l + shift, r + shift) }
      val s = viewOf(edges)
      val incoming = Edge(100L, 200L) // fresh vertices never collide
      // Brute force: x,w with (x,w),(x,v),(u,w) … u=incoming.left etc.
      def brute(u: Long, v: Long): Long = {
        val es = edges.toSet
        val ls = edges.map(_.left).distinct
        val rs = edges.map(_.right).distinct
        (for {
          x <- ls if x != u
          w <- rs if w != v
          if es(Edge(x, w)) && es(Edge(x, v)) && es(Edge(u, w))
        } yield 1).size.toLong
      }
      // Try several incoming edges touching existing vertices.
      val probes = Seq(
        (edges.head.left, edges.last.right),
        (edges.last.left, edges.head.right),
        (incoming.left, incoming.right)) ++ (if (shift == 0L) Nil else Seq(
        (0L, 0L), (0L, edges.head.right), (edges.head.left, 0L),
        (-100L, 0L), (0L, -200L), (-100L, -200L)))
      probes.foreach { case (u, v) =>
        if (!s.contains(Edge(u, v))) {
          assert(ButterflyCounter.countForEdge(s, u, v).butterflies === brute(u, v),
            s"trial $trial incoming ($u,$v)")
        }
      }
    }
  }

  test("work is the sum of the smaller set sizes over the explored intersections") {
    // u = 0 with N(u) = {-10, 11}; v = -20 with N(v) = {2, 3, -4}.
    // N(-10) = {0, 2, 3}, N(11) = {0, -4}; lefts 2, 3, -4 have degree 2.
    val s = viewOf(Seq(Edge(0L, -10L), Edge(0L, 11L), Edge(2L, -10L), Edge(3L, -10L),
      Edge(-4L, 11L), Edge(2L, -20L), Edge(3L, -20L), Edge(-4L, -20L)))
    // Cumulative degrees: u side 3 + 2 = 5 ≤ v side 2 + 2 + 2 = 6, so the
    // walk goes over w ∈ {-10, 11}: |N(-10)| = 3 vs |N(v)| = 3 → 3 probes,
    // 2 hits (2, 3; u excluded); |N(11)| = 2 vs 3 → 2 probes, 1 hit (-4).
    assert(ButterflyCounter.countForEdge(s, 0L, -20L) === ButterflyCounter.Result(3L, 5L))
  }
}
