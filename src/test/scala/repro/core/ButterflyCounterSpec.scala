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
      // and negatives are vertices.
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

  /** Algorithm 1, lines 7–11, with both cumulative degrees summed in full:
    * explore u iff Σ_{w ∈ N(u)} d(w) ≤ Σ_{x ∈ N(v)} d(x); each intersection
    * costs the smaller set's size and skips the other endpoint.
    */
  private def reference(edges: Set[Edge], u: Long, v: Long): (ButterflyCounter.Result, Boolean) = {
    val nL = edges.groupMap(_.left)(_.right).withDefaultValue(Set.empty[Long])
    val nR = edges.groupMap(_.right)(_.left).withDefaultValue(Set.empty[Long])
    val (nu, nv) = (nL(u), nR(v))
    if (nu.isEmpty || nv.isEmpty) return (ButterflyCounter.Result(0L, 0L), true)
    val sumU = nu.toSeq.map(nR(_).size.toLong).sum
    val sumV = nv.toSeq.map(nL(_).size.toLong).sum
    val exploreU = sumU <= sumV
    val (outer, adjOf, skip, other, exclude) =
      if (exploreU) (nu, nR, v, nv, u) else (nv, nL, u, nu, v)
    val sides = (outer - skip).toSeq.map(adjOf)
    val found = sides.map(n => (n & other - exclude).size.toLong).sum
    val work = sides.map(n => math.min(n.size, other.size).toLong).sum
    (ButterflyCounter.Result(found, work), exploreU)
  }

  test("property: the capped cheapest-side rule gives the butterflies and work of full sums") {
    val rng = new java.util.SplittableRandom(17L)
    // A skewed draw from n ids starting at −3 (0 and negatives included):
    // cubing a uniform piles draws on the lowest ids, the hubs.
    def id(n: Int, skew: Boolean): Long = {
      val x = rng.nextDouble()
      -3L + (n * (if (skew) x * x * x else x)).toLong
    }
    var exploredU, exploredV, tiesUSmaller, tiesVSmaller = 0
    (1 to 400).foreach { trial =>
      val mode = trial % 4 // 0: hubs right (u side), 1: hubs left (v side), 2: uniform, 3: mirrored
      val n = 4 + rng.nextInt(12)
      val drawn = Seq.fill(5 + rng.nextInt(40))(Edge(id(n, mode == 1), id(n, mode == 0))).toSet
      // Mirrored: (a, b) present iff (b, a) is, so the endpoints u = v = c
      // have equal neighbour sets and equal cumulative degrees.
      val edges = if (mode == 3) drawn ++ drawn.map(e => Edge(e.right, e.left)) else drawn
      val view = viewOf(edges)
      for (u <- -3L until n - 3L; v <- -3L until n - 3L) {
        val (want, exploreU) = reference(edges, u, v)
        assert(ButterflyCounter.countForEdge(view, u, v) === want, s"trial $trial mode $mode ($u, $v)")
        val nu = view.leftNeighbors(u)
        val nv = view.rightNeighbors(v)
        if (!nu.isEmpty && !nv.isEmpty) {
          if (exploreU) exploredU += 1 else exploredV += 1
          val sumU = edges.iterator.filter(_.left == u).map(e => view.rightNeighbors(e.right).size).sum
          val sumV = edges.iterator.filter(_.right == v).map(e => view.leftNeighbors(e.left).size).sum
          if (sumU == sumV) { if (nu.size <= nv.size) tiesUSmaller += 1 else tiesVSmaller += 1 }
        }
      }
    }
    // Both outcomes and ties with either side smaller all occurred.
    assert(Seq(exploredU, exploredV, tiesUSmaller, tiesVSmaller).forall(_ > 50),
      s"u $exploredU, v $exploredV, ties u-smaller $tiesUSmaller, v-smaller $tiesVSmaller")
  }
}
