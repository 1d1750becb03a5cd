package repro.core

/** A set whose members sit densely at positions `0 until size`, found
  * through one open-addressing table of positions: linear probing from the
  * top bits of a member's 64-bit hash, load ≤ 0.5, doubling growth, and
  * backward-shift deletion (no tombstones, so Random Pairing's churn never
  * degrades probes). A slot holds position + 1, so 0 marks an empty slot.
  * Removal is swap-remove: the last member takes the freed position.
  *
  * While the member arrays hold at most `scanLimit` positions the set keeps
  * no table: the subclass finds a member by scanning positions
  * `0 until size` and removes it with [[removeAt]]. The table is built when
  * the arrays grow past `scanLimit` and kept from then on. Positions and
  * their swap-remove order are the same with or without it.
  *
  * A subclass owns the member arrays and provides [[hashAt]], [[move]],
  * [[grow]] and its own key lookup: a scan while [[indexed]] is false, else
  * a probe along [[home]] and [[nextSlot]].
  */
abstract class DenseSet(initialCapacity: Int, scanLimit: Int) {
  private var cap = initialCapacity
  private var table: Array[Int] = null
  private var shift = 0 // the hash keeps the top bits
  private var count = 0
  if (cap > scanLimit) index()

  /** Number of members. */
  final def size: Int = count

  final def isEmpty: Boolean = count == 0

  /** 64-bit hash of the member at position `pos`. */
  protected def hashAt(pos: Int): Long

  /** Copy the member at position `from` to position `to`. */
  protected def move(from: Int, to: Int): Unit

  /** Grow the member arrays to `capacity` positions, keeping the first [[size]]. */
  protected def grow(capacity: Int): Unit

  /** Positions the member arrays must hold. */
  protected final def capacity: Int = cap

  /** Whether the set keeps a position table; without one, members are found
    * by a scan of the positions.
    */
  protected final def indexed: Boolean = table ne null

  /** Home slot of a member with hash `h`. */
  private[core] final def home(h: Long): Int = (h >>> shift).toInt

  /** Position held by `slot`, or −1 if the slot is empty. */
  protected final def positionAt(slot: Int): Int = table(slot) - 1

  /** The slot probed after `slot`. */
  protected final def nextSlot(slot: Int): Int = (slot + 1) & (table.length - 1)

  /** Enter a new member with hash `h` at position [[size]] and return that
    * position, which the caller then writes. Take the position before
    * naming a member array: this call may replace them.
    */
  protected final def nextPosition(h: Long): Int = {
    if (count == cap) {
      cap *= 2
      grow(cap)
      if (cap > scanLimit) index()
    }
    if (indexed) place(h, count)
    count += 1
    count - 1
  }

  /** Remove the member at position `pos` of a set without a table; the last
    * member takes its position.
    */
  protected final def removeAt(pos: Int): Unit = {
    count -= 1
    if (pos < count) move(count, pos)
  }

  /** Remove the member whose position `slot` holds; the last member takes
    * its position, and its slot is re-pointed there.
    */
  protected final def removeSlot(slot: Int): Unit = {
    val pos = table(slot) - 1
    val last = count - 1
    if (pos < last) {
      var i = home(hashAt(last))
      while (table(i) != last + 1) i = nextSlot(i)
      table(i) = pos + 1
      move(last, pos)
    }
    count = last
    // Backward shift: pull each later entry of the run into the gap unless
    // the gap lies before its home slot (it would become unreachable).
    val mask = table.length - 1
    var gap = slot
    var j = nextSlot(gap)
    while (table(j) != 0) {
      if (((j - home(hashAt(table(j) - 1))) & mask) >= ((j - gap) & mask)) {
        table(gap) = table(j)
        gap = j
      }
      j = nextSlot(j)
    }
    table(gap) = 0
  }

  /** A fresh table of `2 · capacity` slots holding every member. */
  private def index(): Unit = {
    table = new Array[Int](2 * cap)
    shift = 64 - Integer.numberOfTrailingZeros(table.length)
    var p = 0
    while (p < count) { place(hashAt(p), p); p += 1 }
  }

  private def place(h: Long, pos: Int): Unit = {
    var i = home(h)
    while (table(i) != 0) i = nextSlot(i)
    table(i) = pos + 1
  }

  /** A copy of the position table, empty if there is none (tests check its
    * size and layout).
    */
  private[core] final def tableSlots: Array[Int] =
    if (indexed) table.clone() else Array.emptyIntArray
}
