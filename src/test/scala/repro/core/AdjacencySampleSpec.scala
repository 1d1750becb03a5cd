package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.ids

class AdjacencySampleSpec extends AnyFunSuite {

  private def sampleWith(edges: (Long, Long)*): AdjacencySample = {
    val s = new AdjacencySample
    edges.foreach { case (l, r) => s.add(Edge(l, r)) }
    s
  }

  test("empty sample has size 0 and empty neighbour sets") {
    val s = new AdjacencySample
    assert(s.size === 0)
    assert(s.leftNeighbors(1L).isEmpty)
    assert(s.rightNeighbors(1L).isEmpty)
    assert(s.leftNeighbors(5L).size === 0)
    assert(s.rightNeighbors(5L).size === 0)
  }

  test("add maintains both adjacency directions") {
    val s = sampleWith((1L, 2L))
    assert(ids(s.leftNeighbors(1L)) === Set(2L))
    assert(ids(s.rightNeighbors(2L)) === Set(1L))
    assert(s.size === 1)
    assert(s.contains(Edge(1L, 2L)))
  }

  test("left and right vertex ID spaces are independent") {
    val s = sampleWith((7L, 7L))
    assert(ids(s.leftNeighbors(7L)) === Set(7L))
    assert(ids(s.rightNeighbors(7L)) === Set(7L))
    assert(!s.contains(Edge(7L, 8L)))
  }

  test("remove deletes from both directions and drops empty vertices") {
    val s = sampleWith((1L, 2L), (1L, 3L))
    s.remove(Edge(1L, 3L))
    assert(ids(s.leftNeighbors(1L)) === Set(2L))
    assert(s.rightNeighbors(3L).isEmpty)
    assert(s.size === 1)
    assert(!s.contains(Edge(1L, 3L)))
  }

  test("adding a duplicate edge fails") {
    val s = sampleWith((1L, 2L))
    intercept[IllegalArgumentException](s.add(Edge(1L, 2L)))
  }

  test("removing a missing edge fails") {
    val s = sampleWith((1L, 2L))
    intercept[RuntimeException](s.remove(Edge(3L, 4L)))
  }

  test("degrees reflect current adjacency") {
    val s = sampleWith((1L, 10L), (1L, 11L), (2L, 10L))
    assert(s.leftNeighbors(1L).size === 2)
    assert(s.leftNeighbors(2L).size === 1)
    assert(s.rightNeighbors(10L).size === 2)
    assert(s.rightNeighbors(11L).size === 1)
  }

  test("swap-remove keeps the edge registry consistent") {
    val s = sampleWith((1L, 1L), (2L, 2L), (3L, 3L), (4L, 4L))
    s.remove(Edge(1L, 1L)) // head removal exercises the swap path
    s.remove(Edge(3L, 3L))
    assert(s.size === 2)
    assert(s.snapshotEdges().toSet === Set(Edge(2L, 2L), Edge(4L, 4L)))
  }

  test("randomEdge only returns resident edges") {
    val s = sampleWith((1L, 1L), (2L, 2L), (3L, 3L))
    val rng = new java.util.SplittableRandom(1L)
    (1 to 100).foreach { _ =>
      assert(s.contains(s.randomEdge(rng)))
    }
  }

  test("randomEdge is near-uniform over resident edges") {
    val s = sampleWith((1L, 1L), (2L, 2L), (3L, 3L), (4L, 4L))
    val rng = new java.util.SplittableRandom(2L)
    val counts = scala.collection.mutable.Map.empty[Edge, Int].withDefaultValue(0)
    (1 to 40000).foreach(_ => counts(s.randomEdge(rng)) += 1)
    counts.values.foreach(c => assert(math.abs(c - 10000) < 600, s"skewed draw: $counts"))
  }

  test("snapshotEdges is a stable copy unaffected by later mutations") {
    val s = sampleWith((1L, 1L), (2L, 2L))
    val snap = s.snapshotEdges()
    s.remove(Edge(1L, 1L))
    assert(snap.toSet === Set(Edge(1L, 1L), Edge(2L, 2L)))
  }

  test("property: random add/remove sequences keep registry and adjacency in sync") {
    (1 to 50).foreach { trial =>
      val rng = new java.util.SplittableRandom(trial.toLong)
      val s = new AdjacencySample
      val ref = scala.collection.mutable.Set.empty[(Long, Long)]
      (1 to 200).foreach { _ =>
        val l = 1L + rng.nextInt(8)
        val r = 1L + rng.nextInt(8)
        val add = rng.nextBoolean()
        val e = Edge(l, r)
        if (add && !ref((l, r))) { s.add(e); ref += ((l, r)) }
        else if (!add && ref((l, r))) { s.remove(e); ref -= ((l, r)) }
      }
      assert(s.size === ref.size, s"trial $trial size")
      assert(s.snapshotEdges().map(e => (e.left, e.right)).toSet === ref.toSet, s"trial $trial edges")
      ref.groupBy(_._1).foreach { case (l, es) =>
        assert(s.leftNeighbors(l).size === es.size, s"trial $trial degree of $l")
      }
    }
  }
}
