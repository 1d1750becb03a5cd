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
  def leftNeighbors(u: Long): collection.Set[Long]

  /** Left-partition neighbours of right vertex `v` (empty if absent). */
  def rightNeighbors(v: Long): collection.Set[Long]

  /** Degree of left vertex `u` in this view. */
  def leftDegree(u: Long): Int = leftNeighbors(u).size

  /** Degree of right vertex `v` in this view. */
  def rightDegree(v: Long): Int = rightNeighbors(v).size
}

/** Mutable bipartite edge sample stored as adjacency lists (the paper stores
  * sampled edges "using the adjacency list format", §VI-A).
  *
  * Besides the two adjacency maps it keeps a dense array of the sampled
  * edges with an index map, so Random Pairing's "replace a random edge"
  * (Algorithm 2, line 6) is O(1) via swap-remove.
  */
final class AdjacencySample extends AdjView {
  private val adjL = mutable.HashMap.empty[Long, mutable.HashSet[Long]]
  private val adjR = mutable.HashMap.empty[Long, mutable.HashSet[Long]]
  private val edges = mutable.ArrayBuffer.empty[Edge]
  private val edgePos = mutable.HashMap.empty[Edge, Int]

  private val emptySet: collection.Set[Long] = Set.empty[Long]

  override def leftNeighbors(u: Long): collection.Set[Long] =
    adjL.getOrElse(u, emptySet)

  override def rightNeighbors(v: Long): collection.Set[Long] =
    adjR.getOrElse(v, emptySet)

  /** Number of edges currently in the sample (|S|). */
  def size: Int = edges.length

  /** Whether edge `e` is currently sampled. */
  def contains(e: Edge): Boolean = edgePos.contains(e)

  /** Add edge `e`, which must not be present. */
  def add(e: Edge): Unit = {
    require(!edgePos.contains(e), s"edge $e already in sample")
    edgePos(e) = edges.length
    edges += e
    adjL.getOrElseUpdate(e.left, mutable.HashSet.empty) += e.right
    adjR.getOrElseUpdate(e.right, mutable.HashSet.empty) += e.left
  }

  /** Remove edge `e`, which must be present. */
  def remove(e: Edge): Unit = {
    val pos = edgePos.remove(e).getOrElse(sys.error(s"edge $e not in sample"))
    val last = edges.remove(edges.length - 1)
    if (pos < edges.length) { edges(pos) = last; edgePos(last) = pos }
    removeFromAdj(adjL, e.left, e.right)
    removeFromAdj(adjR, e.right, e.left)
  }

  private def removeFromAdj(adj: mutable.HashMap[Long, mutable.HashSet[Long]],
                            key: Long, value: Long): Unit = {
    val s = adj(key)
    s -= value
    if (s.isEmpty) adj.remove(key) // zero-degree vertices leave the sample
  }

  /** A uniformly random sampled edge (for RP's replacement step). */
  def randomEdge(rng: java.util.SplittableRandom): Edge =
    edges(rng.nextInt(edges.length))

  /** Immutable snapshot of the sampled edges, for broadcasting to tasks. */
  def snapshotEdges(): Array[Edge] = edges.toArray
}
