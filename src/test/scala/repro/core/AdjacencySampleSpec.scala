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

  /** The registry the sample replaced: `ArrayBuffer` swap-remove. */
  private final class SwapRemoveModel {
    val edges = scala.collection.mutable.ArrayBuffer.empty[Edge]
    def add(e: Edge): Unit = edges += e
    def remove(e: Edge): Unit = {
      val pos = edges.indexOf(e)
      val last = edges.remove(edges.length - 1)
      if (pos < edges.length) edges(pos) = last
    }
    def randomEdge(rng: java.util.SplittableRandom): Edge = edges(rng.nextInt(edges.length))
  }

  private def assertMatches(s: AdjacencySample, model: SwapRemoveModel, clue: String): Unit = {
    assert(s.size === model.edges.length, clue)
    assert(s.snapshotEdges().toSeq === model.edges.toSeq, clue)
    model.edges.groupBy(_.left).foreach { case (l, es) =>
      assert(ids(s.leftNeighbors(l)) === es.map(_.right).toSet, s"$clue: neighbours of left $l")
    }
    model.edges.groupBy(_.right).foreach { case (r, es) =>
      assert(ids(s.rightNeighbors(r)) === es.map(_.left).toSet, s"$clue: neighbours of right $r")
    }
  }

  test("property: add/remove/contains/randomEdge match ArrayBuffer swap-remove under the same rng") {
    (1 to 30).foreach { trial =>
      val ops = new java.util.SplittableRandom(trial.toLong)
      val rng = new java.util.SplittableRandom(1000L + trial)
      val modelRng = new java.util.SplittableRandom(1000L + trial)
      val s = new AdjacencySample
      val model = new SwapRemoveModel
      val slotSizes = scala.collection.mutable.Set(s.tableSlots.length)
      // Ids −5..34 on both sides (0 and negatives included); a growing phase
      // then a shrinking one, so the table resizes several times and the
      // sample empties out again.
      (1 to 2400).foreach { step =>
        val e = Edge(ops.nextInt(40) - 5L, ops.nextInt(40) - 5L)
        val present = model.edges.contains(e)
        assert(s.contains(e) === present, s"trial $trial step $step contains $e")
        val grow = if (step <= 1200) 0.8 else 0.2
        ops.nextInt(10) match {
          case 0 if model.edges.nonEmpty =>
            assert(s.randomEdge(rng) === model.randomEdge(modelRng), s"trial $trial step $step draw")
          case 1 if model.edges.nonEmpty => // RP's replacement: remove a random edge
            val victim = s.randomEdge(rng)
            assert(victim === model.randomEdge(modelRng), s"trial $trial step $step victim")
            s.remove(victim); model.remove(victim)
          case _ =>
            if (!present && ops.nextDouble() < grow) { s.add(e); model.add(e) }
            else if (present && ops.nextDouble() >= grow) { s.remove(e); model.remove(e) }
        }
        slotSizes += s.tableSlots.length
        if (step % 200 == 0) assertMatches(s, model, s"trial $trial step $step")
      }
      assertMatches(s, model, s"trial $trial end")
      assert(slotSizes.size >= 5, s"trial $trial: table sizes $slotSizes")
    }
  }

  test("removal inside a probe run that wraps past the end of the position table") {
    // Up to 8 edges the table has 16 slots: two edges whose home is the last
    // slot and one whose home is slot 0 fill slots 15, 0 and 1.
    val probe = new AdjacencySample
    assert(probe.tableSlots.length === 16)
    val candidates = for (l <- (-20L to 20L).iterator; r <- (-20L to 20L).iterator) yield Edge(l, r)
    val all = candidates.toVector
    val atLast = all.filter(e => probe.home(AdjacencySample.hash(e.left, e.right)) == 15).take(2)
    val atFirst = all.find(e => probe.home(AdjacencySample.hash(e.left, e.right)) == 0).get
    val keys = atLast :+ atFirst
    assert(keys.distinct.size === 3)
    keys.permutations.foreach { order =>
      keys.foreach { gone =>
        val s = new AdjacencySample
        val model = new SwapRemoveModel
        order.foreach { e => s.add(e); model.add(e) }
        val t = s.tableSlots
        assert(t.length === 16 && t(15) != 0 && t(0) != 0 && t(1) != 0, s"order $order: no wrap")
        s.remove(gone); model.remove(gone)
        assertMatches(s, model, s"order $order, removed $gone")
        keys.foreach(e => assert(s.contains(e) === (e != gone), s"order $order, removed $gone: $e"))
        s.add(gone); model.add(gone)
        assertMatches(s, model, s"order $order, re-added $gone")
        keys.foreach(e => assert(s.contains(e), s"order $order, re-added $gone: $e"))
      }
    }
  }
}
