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

  test("the sample is counted against as it is") {
    assertCompiles("ButterflyCounter.countForEdge(new AdjacencySample, 1L, 2L)")
    assert(ButterflyCounter.countForEdge(new AdjacencySample, 1L, 2L) ===
      ButterflyCounter.Result(0L, 0L))
  }
}
