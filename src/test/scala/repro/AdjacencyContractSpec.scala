package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AdjacencySample, ButterflyCounter, ExactButterflyCounter, LongSet, SampleReplayer}

/** Every graph of `repro.core` is read-only outside the package: its
  * neighbour lists can be read and counted against, but only the package
  * links and unlinks edges. Each rejected snippet has a compiling twin on
  * the same receiver, so a rejection is down to access alone.
  */
class AdjacencyContractSpec extends AnyFunSuite {

  test("link and unlink are not visible outside repro.core") {
    assertCompiles("new AdjacencySample().leftNeighbors(1L)")
    assertDoesNotCompile("new AdjacencySample().link(1L, 2L)")
    assertDoesNotCompile("new AdjacencySample().unlink(1L, 2L)")

    assertCompiles("(null: SampleReplayer).rightNeighbors(2L)")
    assertDoesNotCompile("(null: SampleReplayer).link(1L, 2L)")
    assertDoesNotCompile("(null: SampleReplayer).unlink(1L, 2L)")

    assertCompiles("new ExactButterflyCounter().leftNeighbors(1L)")
    assertDoesNotCompile("new ExactButterflyCounter().link(1L, 2L)")
    assertDoesNotCompile("new ExactButterflyCounter().unlink(1L, 2L)")
  }

  test("a neighbour set cannot be changed outside repro.core") {
    assertCompiles("new LongSet().contains(1L)")
    assertDoesNotCompile("new LongSet().add(1L)")
  }

  // The compiler does not track names used only inside the snippets above,
  // so a build that is not clean may never recompile them; this twin reads
  // the access of the compiled members at run time.
  test("the compiled link, unlink and LongSet.add are private to repro.core") {
    import scala.reflect.runtime.universe._
    def assertCoreOnly(t: Type, name: String): Unit = {
      val m = t.member(TermName(name))
      assert(m != NoSymbol, s"$t has no $name")
      assert(!m.isPublic, m.fullName)
      assert(m.privateWithin.fullName === "repro.core", m.fullName)
    }
    Seq(typeOf[AdjacencySample], typeOf[SampleReplayer], typeOf[ExactButterflyCounter])
      .foreach { t => assertCoreOnly(t, "link"); assertCoreOnly(t, "unlink") }
    assertCoreOnly(typeOf[LongSet], "add")
  }

  test("the sample is counted against as it is") {
    assertCompiles("ButterflyCounter.countForEdge(new AdjacencySample, 1L, 2L)")
    assert(ButterflyCounter.countForEdge(new AdjacencySample, 1L, 2L) ===
      ButterflyCounter.Result(0L, 0L))
  }
}
