package repro.core

/** Set of primitive `Long`s — the neighbour sets of an [[Adjacency]] — as a
  * [[DenseSet]]: members at [[keyAt]]`(0 until size)`, found from a
  * multiplicative (Fibonacci) hash.
  *
  * Mutation is `private[core]`: an [[Adjacency]] hands these sets out
  * read-only. Scans walk [[keyAt]] over `0 until size`, which allocates
  * nothing.
  */
final class LongSet extends DenseSet(2) {
  private var keys = new Array[Long](capacity)

  def contains(x: Long): Boolean = positionAt(slotOf(x)) >= 0

  /** Apply `f` to every member once. */
  def foreach(f: Long => Unit): Unit = {
    var i = 0
    while (i < size) { f(keys(i)); i += 1 }
  }

  /** The member at position `i`, `0 ≤ i < size`. */
  private[core] def keyAt(i: Int): Long = keys(i)

  private[core] def add(x: Long): Unit = {
    require(this ne LongSet.empty, "the shared empty LongSet is immutable")
    if (!contains(x)) {
      val p = nextPosition(LongSet.hash(x))
      keys(p) = x
    }
  }

  private[core] def remove(x: Long): Unit = {
    val slot = slotOf(x)
    if (positionAt(slot) >= 0) removeSlot(slot)
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
}

object LongSet {
  /** The neighbour set of an absent vertex; [[LongSet.add]] rejects it. */
  val empty: LongSet = new LongSet

  private[core] def hash(x: Long): Long = x * 0x9E3779B97F4A7C15L
}
