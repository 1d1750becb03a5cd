package repro.core

import java.util.Arrays
import scala.collection.mutable

/** Bipartite adjacency lists (the paper stores sampled edges "using the
  * adjacency list format", §VI-A): each side maps a vertex to the primitive
  * [[LongSet]] of its neighbours, and a vertex leaves its map with its last
  * edge.
  *
  * Every graph in this package is one: the ABACUS sample, a PARABACUS sample
  * version and the exact counter's full graph, and [[ButterflyCounter]]
  * counts against any of them. Only this package can [[link]] and
  * [[unlink]], so every graph is read-only outside it.
  *
  * The lists keep no edge registry: [[link]] of a present edge and
  * [[unlink]] of an absent one are the caller's to rule out. The sample
  * checks its registry, the replayer's change log is consistent by
  * construction, and the exact counter checks the neighbour set.
  */
trait Adjacency {
  private val adjL = mutable.LongMap.empty[LongSet]
  private val adjR = mutable.LongMap.empty[LongSet]

  /** Right-partition neighbours of left vertex `u` (empty if absent). */
  final def leftNeighbors(u: Long): LongSet = orEmpty(adjL.getOrNull(u))

  /** Left-partition neighbours of right vertex `v` (empty if absent). */
  final def rightNeighbors(v: Long): LongSet = orEmpty(adjR.getOrNull(v))

  private def orEmpty(s: LongSet): LongSet = if (s eq null) LongSet.empty else s

  /** Add the edge `(l, r)`, which must be absent. */
  private[core] final def link(l: Long, r: Long): Unit = {
    addTo(adjL, l, r)
    addTo(adjR, r, l)
  }

  /** Remove the edge `(l, r)`, which must be present. */
  private[core] final def unlink(l: Long, r: Long): Unit = {
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
final class AdjacencySample extends DenseSet(8) with Adjacency {
  private var lefts = new Array[Long](capacity)
  private var rights = new Array[Long](capacity)

  /** Whether edge `e` is currently sampled. */
  def contains(e: Edge): Boolean = positionAt(slotOf(e.left, e.right)) >= 0

  /** Add edge `e`, which must not be present. */
  def add(e: Edge): Unit = {
    require(!contains(e), s"edge $e already in sample")
    val p = nextPosition(AdjacencySample.hash(e.left, e.right))
    lefts(p) = e.left
    rights(p) = e.right
    link(e.left, e.right)
  }

  /** Remove edge `e`, which must be present; the last edge takes its
    * position.
    */
  def remove(e: Edge): Unit = {
    val slot = slotOf(e.left, e.right)
    if (positionAt(slot) < 0) sys.error(s"edge $e not in sample")
    removeSlot(slot)
    unlink(e.left, e.right)
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
