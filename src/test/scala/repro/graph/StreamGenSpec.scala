package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.Edge

class StreamGenSpec extends AnyFunSuite {

  private val edges = TestGraphs.randomEdges(20, 20, 100, 1L)

  test("alpha=0 yields the insert-only stream in natural order") {
    val s = StreamGen.fullyDynamic(edges, 0.0, 1L)
    assert(s.size === edges.size)
    assert(s.forall(_.isInsert))
    assert(s.map(e => (e.edge.left, e.edge.right)) === edges.toVector)
  }

  test("stream length is m·(1+alpha)") {
    for (alpha <- Seq(0.05, 0.1, 0.2, 0.3)) {
      val s = StreamGen.fullyDynamic(edges, alpha, 2L)
      assert(s.size === edges.size + math.round(alpha * edges.size).toInt, s"alpha=$alpha")
    }
  }

  test("deletion count matches alpha") {
    val s = StreamGen.fullyDynamic(edges, 0.2, 3L)
    assert(s.count(!_.isInsert) === 20)
    assert(s.count(_.isInsert) === 100)
  }

  test("every element is valid: inserts are new, deletes exist") {
    (1 to 20).foreach { seed =>
      val s = StreamGen.fullyDynamic(edges, 0.3, seed.toLong)
      val live = scala.collection.mutable.Set.empty[Edge]
      s.foreach { el =>
        if (el.isInsert) {
          assert(!live(el.edge), s"seed=$seed duplicate insert ${el.edge}")
          live += el.edge
        } else {
          assert(live(el.edge), s"seed=$seed deleting missing ${el.edge}")
          live -= el.edge
        }
      }
    }
  }

  test("each deletion appears after its insertion") {
    val s = StreamGen.fullyDynamic(edges, 0.25, 4L)
    val firstSeen = scala.collection.mutable.Map.empty[Edge, Int]
    s.zipWithIndex.foreach { case (el, i) =>
      if (el.isInsert) firstSeen(el.edge) = i
      else assert(firstSeen(el.edge) < i)
    }
  }

  test("insertions keep their natural relative order") {
    val s = StreamGen.fullyDynamic(edges, 0.3, 5L)
    val ins = s.filter(_.isInsert).map(e => (e.edge.left, e.edge.right))
    assert(ins === edges.toVector)
  }

  test("finalEdges equals inserted minus deleted") {
    val s = StreamGen.fullyDynamic(edges, 0.2, 6L)
    val fin = StreamGen.finalEdges(s)
    assert(fin.size === edges.size - 20)
    val deleted = s.filter(!_.isInsert).map(_.edge).toSet
    assert(fin === edges.map { case (l, r) => Edge(l, r) }.toSet -- deleted)
  }

  test("deterministic in seed, different across seeds") {
    val a = StreamGen.fullyDynamic(edges, 0.2, 7L)
    val b = StreamGen.fullyDynamic(edges, 0.2, 7L)
    val c = StreamGen.fullyDynamic(edges, 0.2, 8L)
    assert(a === b)
    assert(a !== c)
  }

  test("alpha=1 deletes everything by the end") {
    val s = StreamGen.fullyDynamic(edges, 1.0, 9L)
    assert(StreamGen.finalEdges(s).isEmpty)
    assert(s.size === 2 * edges.size)
  }

  test("invalid alpha is rejected") {
    intercept[IllegalArgumentException](StreamGen.fullyDynamic(edges, -0.1, 1L))
    intercept[IllegalArgumentException](StreamGen.fullyDynamic(edges, 1.1, 1L))
  }

  test("deletion positions are spread, not clustered at the end") {
    // With α=30% over 100 edges, at least some deletions must land in the
    // first half of the stream (probabilistically certain for this seed).
    val s = StreamGen.fullyDynamic(edges, 0.3, 10L)
    val positions = s.zipWithIndex.collect { case (el, i) if !el.isInsert => i }
    assert(positions.exists(_ < s.size / 2), s"deletions all late: $positions")
  }
}
