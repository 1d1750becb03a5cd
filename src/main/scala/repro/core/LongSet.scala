package repro.core

/** Open-addressing hash set of primitive `Long`s — the neighbour sets of an
  * [[Adjacency]].
  *
  * One `Array[Long]` of slots, linear probing from a multiplicative
  * (Fibonacci) hash, load ≤ 0.5. `0L` marks an empty slot, so key 0 lives in
  * a flag. Removal shifts the rest of the probe run back instead of leaving
  * tombstones, so Random Pairing's churn never degrades probes.
  *
  * Mutation is `private[core]`: an [[AdjView]] hands these sets out
  * read-only. Scans use the slot cursor ([[start]] until [[end]], [[occupied]],
  * [[keyAt]]), which allocates nothing and hides the empty-slot encoding.
  */
final class LongSet {
  private var slots = new Array[Long](4)
  private var shift = 62 // 64 − log2(slots.length): the hash keeps the top bits
  private var used = 0   // non-zero keys in `slots`
  private var hasZero = false

  def size: Int = if (hasZero) used + 1 else used

  def isEmpty: Boolean = size == 0

  def contains(x: Long): Boolean =
    if (x == 0L) hasZero
    else {
      val mask = slots.length - 1
      var i = home(x)
      var s = slots(i)
      while (s != x && s != 0L) { i = (i + 1) & mask; s = slots(i) }
      s == x
    }

  /** Apply `f` to every member once, in slot order. */
  def foreach(f: Long => Unit): Unit = {
    var i = start
    while (i < end) { if (occupied(i)) f(keyAt(i)); i += 1 }
  }

  /** First cursor position: −1 stands for key 0 when it is a member. */
  private[core] def start: Int = if (hasZero) -1 else 0

  /** One past the last cursor position. */
  private[core] def end: Int = slots.length

  /** Whether cursor position `i` holds a member. */
  private[core] def occupied(i: Int): Boolean = i < 0 || slots(i) != 0L

  /** The member at occupied cursor position `i`. */
  private[core] def keyAt(i: Int): Long = if (i < 0) 0L else slots(i)

  /** Home slot of non-zero key `x`. */
  private[core] def home(x: Long): Int = ((x * 0x9E3779B97F4A7C15L) >>> shift).toInt

  private[core] def add(x: Long): Unit = {
    require(this ne LongSet.empty, "the shared empty LongSet is immutable")
    if (x == 0L) hasZero = true
    else if (!contains(x)) {
      insertAbsent(x)
      used += 1
      if (2 * used > slots.length) grow()
    }
  }

  private[core] def remove(x: Long): Unit =
    if (x == 0L) hasZero = false
    else {
      val mask = slots.length - 1
      var gap = home(x)
      while (slots(gap) != x) {
        if (slots(gap) == 0L) return
        gap = (gap + 1) & mask
      }
      // Backward shift: pull each later key of the run into the gap unless
      // the gap lies before its home slot (it would become unreachable).
      var j = (gap + 1) & mask
      while (slots(j) != 0L) {
        if (((j - home(slots(j))) & mask) >= ((j - gap) & mask)) {
          slots(gap) = slots(j)
          gap = j
        }
        j = (j + 1) & mask
      }
      slots(gap) = 0L
      used -= 1
    }

  private def insertAbsent(x: Long): Unit = {
    val mask = slots.length - 1
    var i = home(x)
    while (slots(i) != 0L) i = (i + 1) & mask
    slots(i) = x
  }

  private def grow(): Unit = {
    val old = slots
    slots = new Array[Long](old.length * 2)
    shift -= 1
    var i = 0
    while (i < old.length) { if (old(i) != 0L) insertAbsent(old(i)); i += 1 }
  }
}

object LongSet {
  /** The neighbour set of an absent vertex; [[LongSet.add]] rejects it. */
  val empty: LongSet = new LongSet
}
