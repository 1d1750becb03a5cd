package repro.core

/** A set whose members sit densely at positions `0 until size`, found
  * through one open-addressing table of positions: linear probing from the
  * top bits of a member's 64-bit hash, load ≤ 0.5, doubling growth, and
  * backward-shift deletion (no tombstones, so Random Pairing's churn never
  * degrades probes). A slot holds position + 1, so 0 marks an empty slot.
  * Removal is swap-remove: the last member takes the freed position.
  *
  * A subclass owns the member arrays and provides [[hashAt]], [[move]],
  * [[grow]] and its own key lookup along [[home]] and [[nextSlot]].
  */
abstract class DenseSet(initialCapacity: Int) {
  private var table = new Array[Int](2 * initialCapacity)
  private var shift = 64 - Integer.numberOfTrailingZeros(table.length) // the hash keeps the top bits
  private var count = 0

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
  protected final def capacity: Int = table.length >> 1

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
    if (count == capacity) {
      grow(2 * capacity)
      table = new Array[Int](2 * table.length)
      shift -= 1
      var p = 0
      while (p < count) { place(hashAt(p), p); p += 1 }
    }
    place(h, count)
    count += 1
    count - 1
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

  private def place(h: Long, pos: Int): Unit = {
    var i = home(h)
    while (table(i) != 0) i = nextSlot(i)
    table(i) = pos + 1
  }

  /** A copy of the position table (tests check its size and layout). */
  private[core] final def tableSlots: Array[Int] = table.clone()
}
