package repro.core

/** Exact incremental butterfly counter — the ground-truth substrate.
  *
  * Maintains the *full* graph G^(t) in memory (something ABACUS exists to
  * avoid; here it provides |B^(t)| for accuracy evaluation) and updates the
  * exact count per element using the same per-edge counting code as ABACUS,
  * but against the complete adjacency instead of a sample:
  *
  *  - insertion of {u,v}: every butterfly containing {u,v} is new, and all
  *    its other three edges are already present → count += per-edge count;
  *  - deletion of {u,v}: every butterfly containing {u,v} dies → count −=
  *    per-edge count (computed *before* removing the edge).
  *
  * The counter is the [[Adjacency]] of G^(t) plus the count.
  */
final class ExactButterflyCounter extends Adjacency {
  private var countVal: Long = 0L
  private var edges: Long = 0L

  /** Exact butterfly count |B^(t)|. */
  def count: Long = countVal

  /** Number of live edges |E^(t)|. */
  def edgeCount: Long = edges

  /** Apply one stream element, keeping the count exact. */
  def process(el: StreamElement): Unit = {
    val e = el.edge
    val present = leftNeighbors(e.left).contains(e.right)
    if (el.isInsert) {
      require(!present, s"duplicate insertion of $e")
      val r = ButterflyCounter.countForEdge(this, e.left, e.right)
      countVal += r.butterflies
      link(e.left, e.right)
      edges += 1
    } else {
      require(present, s"deletion of missing edge $e")
      // Count with the edge still present; countForEdge excludes the
      // endpoints so the edge itself never participates as a "third" edge.
      val r = ButterflyCounter.countForEdge(this, e.left, e.right)
      countVal -= r.butterflies
      unlink(e.left, e.right)
      edges -= 1
    }
  }

  /** Process a whole stream and return the final exact count. */
  def processAll(stream: IterableOnce[StreamElement]): Long = {
    stream.iterator.foreach(process)
    countVal
  }
}

object ExactButterflyCounter {
  /** Exact butterfly count of a static edge set (insert-only shortcut). */
  def countStatic(edges: IterableOnce[Edge]): Long = {
    val c = new ExactButterflyCounter
    edges.iterator.foreach(e => c.process(StreamElement(e, isInsert = true)))
    c.count
  }
}
