package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** [[LongSet]] checked step by step against an immutable `Set[Long]`. */
object LongSetSpec extends Properties("LongSet") {

  private val special = Seq(0L, 1L, -1L, Long.MinValue, Long.MinValue + 1,
    Long.MaxValue, Long.MaxValue - 1)

  // A dense small range makes re-adds of removed keys and long probe runs
  // common; up to 400 operations over it force several resizes.
  private val key: Gen[Long] = Gen.frequency(
    2 -> Gen.oneOf(special),
    7 -> Gen.choose(-60L, 60L),
    1 -> Gen.choose(Long.MinValue, Long.MaxValue))

  private sealed trait Op
  private final case class Add(x: Long) extends Op
  private final case class Remove(x: Long) extends Op
  private final case class Contains(x: Long) extends Op

  private val op: Gen[Op] = Gen.frequency(
    5 -> key.map(Add(_)), 3 -> key.map(Remove(_)), 2 -> key.map(Contains(_)))

  private def members(s: LongSet): Vector[Long] = {
    val b = Vector.newBuilder[Long]
    s.foreach(b += _)
    b.result()
  }

  /** Size, membership, iteration and the dense positions (each member
    * exactly once) agree.
    */
  private def agrees(s: LongSet, model: Set[Long]): Boolean = {
    val it = members(s)
    val dense = (0 until s.size).map(s.keyAt)
    s.size == model.size && s.isEmpty == model.isEmpty &&
      it.size == model.size && it.toSet == model && model.forall(s.contains) &&
      dense.size == model.size && dense.toSet == model
  }

  property("random add/remove/contains agree with a Set model after every step") =
    Prop.forAll(Gen.choose(0, 400).flatMap(Gen.listOfN(_, op))) { ops =>
      val s = new LongSet
      var model = Set.empty[Long]
      ops.forall { o =>
        val x = o match {
          case Add(x)      => s.add(x); model += x; x
          case Remove(x)   => s.remove(x); model -= x; x
          case Contains(x) => x
        }
        s.contains(x) == model(x) && agrees(s, model)
      }
    }

  property("removal inside a probe run that wraps past the end of the slots") = Prop.secure {
    // Three keys give 8 slots: two keys whose home is the last slot and one
    // whose home is slot 0 fill slots 7, 0 and 1, so the run wraps.
    val eight = new LongSet
    Seq(1L, 2L, 3L).foreach(eight.add)
    assert(eight.tableSlots.length == 8)
    def homedAt(slot: Int) =
      Iterator.from(1).map(_.toLong).filter(k => eight.home(LongSet.hash(k)) == slot)
    val keys = homedAt(7).take(2).toList :+ homedAt(0).next()
    keys.permutations.forall { order =>
      keys.forall { gone =>
        val s = new LongSet
        order.foreach(s.add)
        val t = s.tableSlots
        val wraps = t.length == 8 && t(7) != 0 && t(0) != 0 && t(1) != 0
        s.remove(gone)
        val afterRemove = agrees(s, keys.toSet - gone)
        s.add(gone)
        wraps && afterRemove && agrees(s, keys.toSet)
      }
    }
  }

  property("the shared empty set cannot be mutated") =
    Prop.throws(classOf[IllegalArgumentException])(LongSet.empty.add(1L)) &&
      LongSet.empty.isEmpty
}
