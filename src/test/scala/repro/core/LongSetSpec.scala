package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** [[LongSet]] checked step by step against an immutable `Set[Long]`. */
object LongSetSpec extends Properties("LongSet") {

  private val special = Seq(0L, 1L, -1L, Long.MinValue, Long.MinValue + 1,
    Long.MaxValue, Long.MaxValue - 1)

  // A dense small range makes re-adds of removed keys and long probe runs
  // common; up to 400 operations over it force several resizes.
  private val scattered: Gen[Long] = Gen.frequency(
    2 -> Gen.oneOf(special),
    7 -> Gen.choose(-60L, 60L),
    1 -> Gen.choose(Long.MinValue, Long.MaxValue))

  // Ids packed into at most six 64-bit words around a base that is 0, a
  // negative id, or the lowest or highest ids a Long has, so the window
  // sits at either end of the word range. Sets of such ids pass the
  // container rule once they have six or more members. In half the runs a
  // special id now and then keeps the set from passing.
  private val clustered: Gen[Gen[Long]] = for {
    base <- Gen.oneOf(0L, -5000L, Long.MinValue, Long.MaxValue - 383)
    far <- Gen.oneOf(0, 1)
  } yield Gen.frequency(20 -> Gen.choose(0L, 383L).map(base + _), far -> Gen.oneOf(special))

  private sealed trait Op
  private final case class Add(x: Long) extends Op
  private final case class Remove(x: Long) extends Op
  private final case class RemoveMember(i: Int) extends Op // the member at position i % size
  private final case class Contains(x: Long) extends Op

  private def ops(key: Gen[Long], n: Int, grow: Boolean): Gen[List[Op]] = {
    val (add, remove) = if (grow) (6, 2) else (1, 7)
    Gen.listOfN(n, Gen.frequency(add -> key.map(Add(_)), remove -> key.map(Remove(_)),
      remove -> Gen.choose(0, Int.MaxValue).map(RemoveMember(_)), 2 -> key.map(Contains(_))))
  }

  private def members(s: LongSet): Vector[Long] = {
    val b = Vector.newBuilder[Long]
    s.foreach(b += _)
    b.result()
  }

  /** Size, membership, iteration and the dense positions (each member
    * exactly once) agree, and a bitmap, if any, holds exactly the members
    * within twice their number of words.
    */
  private def agrees(s: LongSet, model: Set[Long]): Boolean = {
    val it = members(s)
    val dense = (0 until s.size).map(s.keyAt)
    val words = s.bitmapWords
    s.size == model.size && s.isEmpty == model.isEmpty &&
      it.size == model.size && it.toSet == model && model.forall(s.contains) &&
      dense.size == model.size && dense.toSet == model &&
      (words == 0 || words <= 2 * s.size && s.andCount(s) == s.size)
  }

  /** Run `ops` on a fresh set and its model, checking after every step;
    * also report whether the set ever held a bitmap and ever dropped one.
    */
  private def run(ops: Seq[Op]): (Boolean, Boolean, Boolean) = {
    val s = new LongSet
    var model = Set.empty[Long]
    var had, dropped = false
    val ok = ops.forall { o =>
      val before = s.bitmapWords
      val x = o match {
        case Add(x)          => s.add(x); model += x; x
        case Remove(x)       => s.remove(x); model -= x; x
        case RemoveMember(i) =>
          if (s.isEmpty) 0L else { val x = s.keyAt(i % s.size); s.remove(x); model -= x; x }
        case Contains(x)     => x
      }
      had ||= s.bitmapWords > 0
      dropped ||= before > 0 && s.bitmapWords == 0
      s.contains(x) == model(x) && agrees(s, model)
    }
    (ok, had, dropped)
  }

  property("random add/remove/contains agree with a Set model after every step") =
    Prop.forAll(Gen.choose(0, 400).flatMap(ops(scattered, _, grow = true))) { ops =>
      run(ops)._1
    }

  property("clustered ids: grow, shrink and grow again agree with a Set model after every step") =
    Prop.forAll(clustered.flatMap { key =>
      for {
        g <- ops(key, 150, grow = true)
        s <- ops(key, 150, grow = false)
        r <- ops(key, 150, grow = true)
      } yield g ++ s ++ r
    }) { ops =>
      val (ok, had, dropped) = run(ops)
      Prop.classify(had, "took a bitmap")(Prop.classify(dropped, "dropped a bitmap")(ok))
    }

  property("the container rule: dense ids take a bitmap, spread ids never do, shrinking drops it") =
    Prop.secure {
      Seq(0L, -7000L, Long.MinValue, Long.MaxValue - 1023).forall { base =>
        // One id per word over 16 words: words = members, so the rule holds
        // from the first check at which the set has a position table.
        val dense = new LongSet
        (0 until 16).foreach(i => dense.add(base + 64L * i))
        val took = dense.bitmapWords == 16
        // Two words per member never pass the rule.
        val spread = new LongSet
        (0 until 16).foreach(i => spread.add(base + 128L * i))
        // 16 words are kept down to 8 members and dropped at 7.
        (15 until 8 by -1).foreach(i => dense.remove(base + 64L * i))
        val kept = dense.bitmapWords == 16 && dense.size == 9
        dense.remove(base + 64L * 8)
        val keptAt8 = dense.bitmapWords == 16
        dense.remove(base + 64L * 7)
        took && kept && keptAt8 && dense.bitmapWords == 0 && spread.bitmapWords == 0 &&
          agrees(dense, (0 until 7).map(base + 64L * _).toSet) &&
          agrees(spread, (0 until 16).map(base + 128L * _).toSet)
      }
    }

  property("a member outside the window widens it, until the window would be twice the members") =
    Prop.secure {
      // The top base leaves room for 61 words of members below Long.MaxValue.
      Seq(0L, Long.MinValue, Long.MaxValue - 64L * 61 + 1).forall { base =>
        val s = new LongSet
        (0 until 16).foreach(i => s.add(base + 64L * i))
        var model = (0 until 16).map(base + 64L * _).toSet
        // 16 → 24 words for the 17th member, then 36 for the 25th.
        (16 until 24).foreach { i => s.add(base + 64L * i); model += base + 64L * i }
        val widened = s.bitmapWords == 24 && agrees(s, model) && !s.contains(base - 1) &&
          !s.contains(base + 64L * 23 + 1) && !s.contains(base + 64L * 24)
        // Members 3 words apart widen it to 36 and 54 words; the 36th member
        // would need 81 > 2 · 35, so the bitmap is dropped there.
        var i = 24
        while (s.bitmapWords > 0) { s.add(base + 64L * i); model += base + 64L * i; i += 3 }
        widened && agrees(s, model) && i == 57
      }
    } && Prop.secure {
      // Downwards from the top word of the Long range, then the lowest id,
      // which no window of this set can reach.
      val s = new LongSet
      val top = (0 until 16).map(i => Long.MaxValue - 64L * i)
      top.foreach(s.add)
      s.add(Long.MaxValue - 64L * 16)
      val wide = s.bitmapWords == 24
      s.add(Long.MinValue)
      wide && s.bitmapWords == 0 && agrees(s, top.toSet + (Long.MaxValue - 64L * 16) + Long.MinValue)
    }

  property("AND-popcount counts the common members over the overlap of two windows") =
    Prop.forAll(Gen.oneOf(0L, -5000L, Long.MinValue, Long.MaxValue - 2000L),
      Gen.listOfN(120, Gen.choose(0L, 1000L)), Gen.listOfN(120, Gen.choose(500L, 2000L))) {
      (base, xs, ys) =>
        // The two windows start at different words and overlap in part.
        val a = new LongSet
        val b = new LongSet
        xs.foreach(x => a.add(base + x))
        ys.foreach(y => b.add(base + y))
        val common = (xs.toSet & ys.toSet).size.toLong
        a.bitmapWords > 0 && b.bitmapWords > 0 && a.andCount(b) == common && b.andCount(a) == common
    }

  property("removal inside a probe run that wraps past the end of the slots") = Prop.secure {
    // Nine keys give a table of 32 slots: six fillers homed mid-table, two
    // keys whose home is the last slot and one whose home is slot 0, which
    // fill slots 31, 0 and 1, so the run wraps.
    val probe = new LongSet
    (1L to 9L).foreach(probe.add)
    assert(probe.tableSlots.length == 32)
    def homedAt(slots: Range) =
      Iterator.from(1).map(_.toLong).filter(k => slots.contains(probe.home(LongSet.hash(k))))
    val fillers = homedAt(12 to 17).take(6).toList
    val keys = homedAt(31 to 31).take(2).toList :+ homedAt(0 to 0).next()
    keys.permutations.forall { order =>
      keys.forall { gone =>
        val s = new LongSet
        (fillers ++ order).foreach(s.add)
        val t = s.tableSlots
        val wraps = t.length == 32 && t(31) != 0 && t(0) != 0 && t(1) != 0
        s.remove(gone)
        val afterRemove = agrees(s, (fillers ++ keys).toSet - gone)
        s.add(gone)
        wraps && afterRemove && agrees(s, (fillers ++ keys).toSet)
      }
    }
  }

  property("a set of up to ScanLimit positions keeps no position table") = Prop.secure {
    val s = new LongSet
    (1L to LongSet.ScanLimit.toLong).foreach(s.add)
    val scanned = s.tableSlots.isEmpty
    s.add(0L)
    scanned && s.tableSlots.length == 4 * LongSet.ScanLimit
  }

  property("the shared empty set cannot be mutated") =
    Prop.throws(classOf[IllegalArgumentException])(LongSet.empty.add(1L)) &&
      LongSet.empty.isEmpty
}
