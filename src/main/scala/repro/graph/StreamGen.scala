package repro.graph

import java.util.SplittableRandom
import repro.core.{Edge, StreamElement}

/** Fully dynamic bipartite graph stream generator — the paper's deletion
  * protocol (§VI-A, "Deletions"):
  *
  *  (a) insert every edge of the input graph in its natural order;
  *  (b) pick α% of the edges for deletion (uniformly at random);
  *  (c) place each deletion at a uniformly random position *after* its
  *      corresponding insertion.
  *
  * Deterministic in (edges, alpha, seed). The resulting stream is valid by
  * construction: an edge is only deleted while it exists, and never
  * re-inserted.
  */
object StreamGen {

  /** Build the stream. `alpha` is the deletion fraction in [0, 1]. */
  def fullyDynamic(edges: IndexedSeq[(Long, Long)], alpha: Double,
                   seed: Long): Vector[StreamElement] = {
    require(alpha >= 0.0 && alpha <= 1.0, s"alpha must be in [0,1], got $alpha")
    val m = edges.length
    val rng = new SplittableRandom(seed)
    val nDel = math.round(alpha * m).toInt

    // Uniform sample of edge indices to delete (partial Fisher–Yates).
    val idx = Array.tabulate(m)(identity)
    var i = 0
    while (i < nDel) {
      val j = i + rng.nextInt(m - i)
      val tmp = idx(i); idx(i) = idx(j); idx(j) = tmp
      i += 1
    }

    // Timeline keys: insertion of edge i at key i; its deletion at a
    // uniform key strictly inside (i, m). Sorting by key yields the stream.
    val events = new Array[(Double, StreamElement)](m + nDel)
    var t = 0
    while (t < m) {
      val (l, r) = edges(t)
      events(t) = (t.toDouble, StreamElement.insert(l, r))
      t += 1
    }
    var d = 0
    while (d < nDel) {
      val ins = idx(d)
      val (l, r) = edges(ins)
      val key = ins + 0.5 + rng.nextDouble() * (m - ins - 0.5)
      events(m + d) = (key, StreamElement.delete(l, r))
      d += 1
    }
    events.sortBy(_._1).iterator.map(_._2).toVector
  }

  /** Final graph of a stream: edges inserted and never subsequently deleted. */
  def finalEdges(stream: Iterable[StreamElement]): Set[Edge] = {
    val live = scala.collection.mutable.LinkedHashSet.empty[Edge]
    stream.foreach { el =>
      if (el.isInsert) live += el.edge else live -= el.edge
    }
    live.toSet
  }
}
