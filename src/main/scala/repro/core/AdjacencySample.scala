package repro.core

import java.util.Arrays
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

/** Mutable bipartite adjacency lists (the paper stores sampled edges "using
  * the adjacency list format", §VI-A): each side maps a vertex to the
  * primitive [[LongSet]] of its neighbours, and a vertex leaves its map with
  * its last edge.
  *
  * It keeps no edge registry: [[add]] of a present edge and [[remove]] of an
  * absent one are the caller's to rule out. The PARABACUS replayer applies a
  * change log that is consistent by construction, and the exact counter
  * checks membership through the neighbour set.
  */
final class Adjacency extends AdjView {
  private val adjL = mutable.LongMap.empty[LongSet]
  private val adjR = mutable.LongMap.empty[LongSet]

  override def leftNeighbors(u: Long): LongSet = orEmpty(adjL.getOrNull(u))

  override def rightNeighbors(v: Long): LongSet = orEmpty(adjR.getOrNull(v))

  private def orEmpty(s: LongSet): LongSet = if (s eq null) LongSet.empty else s

  /** Add the edge `(l, r)`. */
  def add(l: Long, r: Long): Unit = {
    addTo(adjL, l, r)
    addTo(adjR, r, l)
  }

  /** Remove the edge `(l, r)`, which must be present. */
  def remove(l: Long, r: Long): Unit = {
    removeFrom(adjL, l, r)
    removeFrom(adjR, r, l)
  }

  private def addTo(adj: mutable.LongMap[LongSet], key: Long, value: Long): Unit = {
    var s = adj.getOrNull(key)
    if (s eq null) { s = new LongSet; adj.update(key, s) }
    s.add(value)
  }

  private def removeFrom(adj: mutable.LongMap[LongSet], key: Long, value: Long): Unit = {
    val s = adj.getOrNull(key)
    s.remove(value)
    if (s.isEmpty) adj -= key // zero-degree vertices leave the map
  }
}

/** Mutable bipartite edge sample: an [[Adjacency]] plus a registry of the
  * sampled edges, so Random Pairing's "replace a random edge"
  * (Algorithm 2, line 6) is O(1) via swap-remove.
  *
  * The registry is a [[DenseSet]] of edges: edge `j` is
  * `(lefts(j), rights(j))` for `j < size`, in `ArrayBuffer` swap-remove
  * order.
  */
final class AdjacencySample extends DenseSet(8) with AdjView {
  private val adj = new Adjacency
  private var lefts = new Array[Long](capacity)
  private var rights = new Array[Long](capacity)

  override def leftNeighbors(u: Long): LongSet = adj.leftNeighbors(u)

  override def rightNeighbors(v: Long): LongSet = adj.rightNeighbors(v)

  /** Whether edge `e` is currently sampled. */
  def contains(e: Edge): Boolean = positionAt(slotOf(e.left, e.right)) >= 0

  /** Add edge `e`, which must not be present. */
  def add(e: Edge): Unit = {
    require(!contains(e), s"edge $e already in sample")
    val p = nextPosition(AdjacencySample.hash(e.left, e.right))
    lefts(p) = e.left
    rights(p) = e.right
    adj.add(e.left, e.right)
  }

  /** Remove edge `e`, which must be present; the last edge takes its
    * position.
    */
  def remove(e: Edge): Unit = {
    val slot = slotOf(e.left, e.right)
    if (positionAt(slot) < 0) sys.error(s"edge $e not in sample")
    removeSlot(slot)
    adj.remove(e.left, e.right)
  }

  /** A uniformly random sampled edge (for RP's replacement step). */
  def randomEdge(rng: java.util.SplittableRandom): Edge = {
    val j = rng.nextInt(size)
    Edge(lefts(j), rights(j))
  }

  /** Immutable snapshot of the sampled edges, in registry order. */
  def snapshotEdges(): Array[Edge] = Array.tabulate(size)(j => Edge(lefts(j), rights(j)))

  /** Copy the sampled edges, in registry order, to the front of `l` and `r`. */
  private[core] def copyEdgesTo(l: Array[Long], r: Array[Long]): Unit = {
    System.arraycopy(lefts, 0, l, 0, size)
    System.arraycopy(rights, 0, r, 0, size)
  }

  protected def hashAt(pos: Int): Long = AdjacencySample.hash(lefts(pos), rights(pos))

  protected def move(from: Int, to: Int): Unit = {
    lefts(to) = lefts(from)
    rights(to) = rights(from)
  }

  protected def grow(capacity: Int): Unit = {
    lefts = Arrays.copyOf(lefts, capacity)
    rights = Arrays.copyOf(rights, capacity)
  }

  /** Slot that holds the position of `(l, r)`, or else the empty slot that
    * ends its probe run.
    */
  private def slotOf(l: Long, r: Long): Int = {
    var i = home(AdjacencySample.hash(l, r))
    var p = positionAt(i)
    while (p >= 0 && (lefts(p) != l || rights(p) != r)) { i = nextSlot(i); p = positionAt(i) }
    i
  }
}

object AdjacencySample {
  private[core] def hash(l: Long, r: Long): Long =
    ((l * 0x9E3779B97F4A7C15L) ^ r) * 0xC2B2AE3D27D4EB4FL
}
