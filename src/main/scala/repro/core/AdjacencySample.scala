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

/** Mutable bipartite edge sample: an [[Adjacency]] plus a dense registry of
  * the sampled edges, so Random Pairing's "replace a random edge"
  * (Algorithm 2, line 6) is O(1) via swap-remove.
  *
  * The registry holds edge `j` as `(lefts(j), rights(j))` for `j < size`,
  * and finds an edge's position through an open-addressing table of `Int`
  * positions — linear probing, load ≤ 0.5, backward-shift deletion, as in
  * [[LongSet]]. A slot holds position + 1, so 0 marks an empty slot.
  */
final class AdjacencySample extends AdjView {
  private val adj = new Adjacency
  private var lefts = new Array[Long](8)
  private var rights = new Array[Long](8)
  private var count = 0
  private var slots = new Array[Int](16)
  private var shift = 60 // 64 − log2(slots.length): the hash keeps the top bits

  override def leftNeighbors(u: Long): LongSet = adj.leftNeighbors(u)

  override def rightNeighbors(v: Long): LongSet = adj.rightNeighbors(v)

  /** Number of edges currently in the sample (|S|). */
  def size: Int = count

  /** Whether edge `e` is currently sampled. */
  def contains(e: Edge): Boolean = slotOf(e.left, e.right) >= 0

  /** Add edge `e`, which must not be present. */
  def add(e: Edge): Unit = {
    require(!contains(e), s"edge $e already in sample")
    if (count == lefts.length) {
      lefts = Arrays.copyOf(lefts, 2 * count)
      rights = Arrays.copyOf(rights, 2 * count)
    }
    lefts(count) = e.left
    rights(count) = e.right
    count += 1
    if (2 * count > slots.length) rehash() else place(count - 1)
    adj.add(e.left, e.right)
  }

  /** Remove edge `e`, which must be present; the last edge takes its
    * position.
    */
  def remove(e: Edge): Unit = {
    val gap = slotOf(e.left, e.right)
    if (gap < 0) sys.error(s"edge $e not in sample")
    val pos = slots(gap) - 1
    val last = count - 1
    if (pos < last) {
      slots(slotOf(lefts(last), rights(last))) = pos + 1
      lefts(pos) = lefts(last)
      rights(pos) = rights(last)
    }
    count = last
    unslot(gap)
    adj.remove(e.left, e.right)
  }

  /** A uniformly random sampled edge (for RP's replacement step). */
  def randomEdge(rng: java.util.SplittableRandom): Edge = {
    val j = rng.nextInt(count)
    Edge(lefts(j), rights(j))
  }

  /** Immutable snapshot of the sampled edges, in registry order. */
  def snapshotEdges(): Array[Edge] = Array.tabulate(count)(j => Edge(lefts(j), rights(j)))

  /** Copy the sampled edges, in registry order, to the front of `l` and `r`. */
  private[core] def copyEdgesTo(l: Array[Long], r: Array[Long]): Unit = {
    System.arraycopy(lefts, 0, l, 0, count)
    System.arraycopy(rights, 0, r, 0, count)
  }

  /** Number of slots of the position table. */
  private[core] def indexSlots: Int = slots.length

  /** Home slot of the edge `(l, r)`. */
  private[core] def home(l: Long, r: Long): Int =
    (((l * 0x9E3779B97F4A7C15L) ^ r) * 0xC2B2AE3D27D4EB4FL >>> shift).toInt

  /** Slot that holds the position of `(l, r)`, or −1 if it is not sampled. */
  private def slotOf(l: Long, r: Long): Int = {
    val mask = slots.length - 1
    var i = home(l, r)
    var p = slots(i)
    while (p != 0) {
      if (lefts(p - 1) == l && rights(p - 1) == r) return i
      i = (i + 1) & mask
      p = slots(i)
    }
    -1
  }

  /** Enter position `j`, whose edge is absent from the table. */
  private def place(j: Int): Unit = {
    val mask = slots.length - 1
    var i = home(lefts(j), rights(j))
    while (slots(i) != 0) i = (i + 1) & mask
    slots(i) = j + 1
  }

  /** Empty slot `gap`. Backward shift: pull each later entry of the run
    * into the gap unless the gap lies before its home slot (it would become
    * unreachable).
    */
  private def unslot(gap: Int): Unit = {
    val mask = slots.length - 1
    var g = gap
    var j = (g + 1) & mask
    while (slots(j) != 0) {
      val p = slots(j) - 1
      if (((j - home(lefts(p), rights(p))) & mask) >= ((j - g) & mask)) {
        slots(g) = slots(j)
        g = j
      }
      j = (j + 1) & mask
    }
    slots(g) = 0
  }

  /** Double the table and re-enter every position. */
  private def rehash(): Unit = {
    slots = new Array[Int](2 * slots.length)
    shift -= 1
    var j = 0
    while (j < count) { place(j); j += 1 }
  }
}
