package repro.core

import scala.collection.mutable

/** Read-only view of a bipartite adjacency structure.
  *
  * [[ButterflyCounter]] counts butterflies against any implementation of
  * this trait, so the same counting code serves the ABACUS sample, the
  * PARABACUS per-version replayed sample, and the exact counter's full graph.
  */
trait AdjView {
  /** Right-partition neighbours of left vertex `u` (empty if absent). */
  def leftNeighbors(u: Long): LongSet

  /** Left-partition neighbours of right vertex `v` (empty if absent). */
  def rightNeighbors(v: Long): LongSet
}

/** Mutable bipartite edge sample stored as adjacency lists (the paper stores
  * sampled edges "using the adjacency list format", §VI-A): each side maps a
  * vertex to the primitive [[LongSet]] of its neighbours.
  *
  * Besides the two adjacency maps it keeps a dense array of the sampled
  * edges with an index map, so Random Pairing's "replace a random edge"
  * (Algorithm 2, line 6) is O(1) via swap-remove.
  */
final class AdjacencySample extends AdjView {
  private val adjL = mutable.LongMap.empty[LongSet]
  private val adjR = mutable.LongMap.empty[LongSet]
  private val edges = mutable.ArrayBuffer.empty[Edge]
  private val edgePos = mutable.HashMap.empty[Edge, Int]

  override def leftNeighbors(u: Long): LongSet = orEmpty(adjL.getOrNull(u))

  override def rightNeighbors(v: Long): LongSet = orEmpty(adjR.getOrNull(v))

  private def orEmpty(s: LongSet): LongSet = if (s eq null) LongSet.empty else s

  /** Number of edges currently in the sample (|S|). */
  def size: Int = edges.length

  /** Whether edge `e` is currently sampled. */
  def contains(e: Edge): Boolean = edgePos.contains(e)

  /** Add edge `e`, which must not be present. */
  def add(e: Edge): Unit = {
    require(!edgePos.contains(e), s"edge $e already in sample")
    edgePos(e) = edges.length
    edges += e
    addToAdj(adjL, e.left, e.right)
    addToAdj(adjR, e.right, e.left)
  }

  /** Remove edge `e`, which must be present. */
  def remove(e: Edge): Unit = {
    val pos = edgePos.remove(e).getOrElse(sys.error(s"edge $e not in sample"))
    val last = edges.remove(edges.length - 1)
    if (pos < edges.length) { edges(pos) = last; edgePos(last) = pos }
    removeFromAdj(adjL, e.left, e.right)
    removeFromAdj(adjR, e.right, e.left)
  }

  private def addToAdj(adj: mutable.LongMap[LongSet], key: Long, value: Long): Unit = {
    var s = adj.getOrNull(key)
    if (s eq null) { s = new LongSet; adj.update(key, s) }
    s.add(value)
  }

  private def removeFromAdj(adj: mutable.LongMap[LongSet], key: Long, value: Long): Unit = {
    val s = adj.getOrNull(key)
    s.remove(value)
    if (s.isEmpty) adj -= key // zero-degree vertices leave the sample
  }

  /** A uniformly random sampled edge (for RP's replacement step). */
  def randomEdge(rng: java.util.SplittableRandom): Edge =
    edges(rng.nextInt(edges.length))

  /** Immutable snapshot of the sampled edges, for broadcasting to tasks. */
  def snapshotEdges(): Array[Edge] = edges.toArray
}
