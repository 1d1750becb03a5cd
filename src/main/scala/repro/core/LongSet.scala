package repro.core

/** Set of primitive `Long`s — the neighbour sets of an [[Adjacency]] — as a
  * [[DenseSet]]: members at [[keyAt]]`(0 until size)`, found from a
  * multiplicative (Fibonacci) hash. A set of at most [[LongSet.ScanLimit]]
  * positions keeps no position table and scans its keys instead.
  *
  * Beside its keys a set may keep a bitmap of its members over a window of
  * 64-aligned words: member `x` is bit `x & 63` of word `x >> 6`, and the
  * window holds the words `lo until lo + words`. Word indices lie within
  * ±2⁵⁷, so the window arithmetic holds for every `Long` id. The container
  * rule decides from the members alone whether a set keeps one:
  *  - a set with a position table takes a bitmap when the words spanning
  *    its members are no more than its members, so the bitmap never costs
  *    more than the keys it sits beside; the rule is checked once the set
  *    has taken as many adds as it had members at the last check (in a
  *    growing set, at each doubling), so the check is amortised O(1);
  *  - a member outside the window widens it by half again, and the set
  *    drops the bitmap once it would span more than twice its members, on
  *    an add or a removal (hysteresis, so a set at the border does not
  *    flip back and forth).
  * A set whose ids are spread out keeps none. [[contains]] tests the bitmap
  * when there is one, and [[andCount]] intersects two bitmapped sets by AND
  * and popcount.
  *
  * Mutation is `private[core]`: an [[Adjacency]] hands these sets out
  * read-only. Scans walk [[keyAt]] over `0 until size`, which allocates
  * nothing.
  */
final class LongSet extends DenseSet(2, LongSet.ScanLimit) {
  private var keys = new Array[Long](capacity)
  private var bits: Array[Long] = null // the bitmap, or null
  private var lo = 0L                  // its first word
  private var untilCheck = 1           // adds before the container rule is checked

  def contains(x: Long): Boolean =
    if (bits ne null) {
      val w = (x >> 6) - lo
      w >= 0 && w < bits.length && (bits(w.toInt) & (1L << x)) != 0
    } else if (indexed) positionAt(slotOf(x)) >= 0
    else scan(x) >= 0

  /** Apply `f` to every member once. */
  def foreach(f: Long => Unit): Unit = {
    var i = 0
    while (i < size) { f(keys(i)); i += 1 }
  }

  /** The member at position `i`, `0 ≤ i < size`. */
  private[core] def keyAt(i: Int): Long = keys(i)

  /** Words of the bitmap, 0 if the set keeps none. */
  private[core] def bitmapWords: Int = if (bits eq null) 0 else bits.length

  /** |this ∩ that| by AND and popcount over the overlap of the two windows;
    * both sets must keep a bitmap.
    */
  private[core] def andCount(that: LongSet): Long = {
    val from = math.max(lo, that.lo)
    val to = math.min(lo + bits.length, that.lo + that.bits.length)
    var c = 0L
    if (from < to) {
      var i = (from - lo).toInt
      var j = (from - that.lo).toInt
      val end = i + (to - from).toInt
      while (i < end) {
        c += java.lang.Long.bitCount(bits(i) & that.bits(j))
        i += 1
        j += 1
      }
    }
    c
  }

  private[core] def add(x: Long): Unit = {
    require(this ne LongSet.empty, "the shared empty LongSet is immutable")
    if (!contains(x)) {
      val p = nextPosition(LongSet.hash(x))
      keys(p) = x
      if (bits ne null) setBit(x)
      else {
        untilCheck -= 1
        if (untilCheck == 0) fit()
      }
    }
  }

  private[core] def remove(x: Long): Unit =
    if (indexed) {
      val slot = slotOf(x)
      if (positionAt(slot) >= 0) {
        removeSlot(slot)
        if (bits ne null) {
          if (bits.length > 2 * size) drop()
          else bits(((x >> 6) - lo).toInt) &= ~(1L << x)
        }
      }
    } else {
      val p = scan(x)
      if (p >= 0) removeAt(p)
    }

  protected def hashAt(pos: Int): Long = LongSet.hash(keys(pos))

  protected def move(from: Int, to: Int): Unit = keys(to) = keys(from)

  protected def grow(capacity: Int): Unit = keys = java.util.Arrays.copyOf(keys, capacity)

  /** Slot that holds `x`'s position, or else the empty slot that ends its
    * probe run.
    */
  private def slotOf(x: Long): Int = {
    var i = home(LongSet.hash(x))
    while (positionAt(i) >= 0 && keys(positionAt(i)) != x) i = nextSlot(i)
    i
  }

  /** Position of `x` in a set without a table, or −1. */
  private def scan(x: Long): Int = {
    var i = size - 1
    while (i >= 0 && keys(i) != x) i -= 1
    i
  }

  /** The container rule: take a bitmap if the set has a position table and
    * the words spanning its members are no more than its members.
    */
  private def fit(): Unit = {
    untilCheck = size
    if (indexed) {
      var min = keys(0) >> 6
      var max = min
      var i = 1
      while (i < size) {
        val w = keys(i) >> 6
        if (w < min) min = w else if (w > max) max = w
        i += 1
      }
      if (max - min < size) {
        bits = new Array[Long]((max - min + 1).toInt)
        lo = min
        i = 0
        while (i < size) { setBit(keys(i)); i += 1 }
      }
    }
  }

  private def drop(): Unit = {
    bits = null
    untilCheck = math.max(size, 1)
  }

  private def setBit(x: Long): Unit = {
    val w = x >> 6
    if (w < lo || w >= lo + bits.length) widen(w)
    if (bits ne null) bits((w - lo).toInt) |= 1L << x
  }

  /** Widen the window to word `w` and by at least half its words, on the
    * side of `w`, or drop the bitmap if it would then span more than twice
    * the members.
    */
  private def widen(w: Long): Unit = {
    val n = bits.length
    val words = math.max(n + (n >> 1), if (w < lo) lo + n - w else w - lo + 1)
    if (words > 2L * size) drop()
    else {
      val from = if (w < lo) lo + n - words else lo
      val wider = new Array[Long](words.toInt)
      System.arraycopy(bits, 0, wider, (lo - from).toInt, n)
      bits = wider
      lo = from
    }
  }
}

object LongSet {
  /** The neighbour set of an absent vertex; [[LongSet.add]] rejects it. */
  val empty: LongSet = new LongSet

  /** Positions up to which a set scans its keys instead of keeping a table.
    * Of 0, 2, 4 and 8, 8 keeps the least state on perfbench's workloads, and
    * sequential ABACUS times did not separate them (EXPERIMENTS.md).
    */
  private[core] final val ScanLimit = 8

  private[core] def hash(x: Long): Long = x * 0x9E3779B97F4A7C15L
}
