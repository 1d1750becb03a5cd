package repro

import repro.baselines.{Cas, Fleet}
import repro.core.{Abacus, ParAbacus}
import repro.graph.Datasets

/** Bit-identity record: the exact `doubleToLongBits` of the estimates, and
  * the work and butterflies found, on movielens-lite with α = 0.2 and
  * stream and sampler seed 1. Any change to sampling, counting or
  * summation order moves at least one of them; a change that should leave
  * the results alone must keep every one.
  */
class GoldenBitsSpec extends SparkSpec {

  private lazy val stream = Datasets.movielensLite.stream(0.2, seed = 1L)

  private def bits(x: Double): String =
    "0x" + java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(x))

  test("ABACUS k=1600 and k=16000") {
    val small = new Abacus(1600, 1L)
    small.processAll(stream)
    assert((bits(small.estimate), small.totalWork, small.totalFound) ===
      (("0x4179b8e7eee975d2", 314617L, 6731L)))
    val large = new Abacus(16000, 1L)
    large.processAll(stream)
    assert((bits(large.estimate), large.totalWork, large.totalFound) ===
      (("0x4177be7d50a553c3", 22287862L, 3363628L)))
  }

  test("PARABACUS k=16000, M=10000, p=4") {
    val par = new ParAbacus(16000, 1L, spark, 4)
    par.processAll(stream, 10000)
    assert((bits(par.estimate), par.totalWork, par.totalFound) ===
      (("0x4177be7d50a553c3", 22287862L, 3363628L)))
  }

  test("CAS and FLEET k=1600 (both skip deletions)") {
    assert(bits(new Cas(1600, 1L).processAll(stream)) === "0x418f2c706c725bb7")
    assert(bits(new Fleet(1600, 1L).processAll(stream)) === "0x4191e67fa6bcace1")
  }
}
