package repro.core

import java.util.SplittableRandom
import scala.collection.immutable.ArraySeq

/** Random Pairing (Gemulla et al., VLDBJ'08) over an [[AdjacencySample]] —
  * Algorithm 2 of the paper.
  *
  * Maintains a uniform random sample of at most `k` edges from a fully
  * dynamic stream. Deletions are "paired" with subsequent insertions through
  * the compensation counters:
  *   - `cb` ("bad"): uncompensated deletions of edges that *were* sampled,
  *   - `cg` ("good"): uncompensated deletions of edges that were not.
  *
  * Every change to the sample S is itself a stream element on S
  * (Definition 1 applied to S): an insert puts an edge into S, a delete
  * takes it out. [[apply]] returns them in order, so [[Abacus.advanceBatch]]
  * can log the versions of S for PARABACUS; [[Abacus.process]] ignores them.
  * Without deletions `c_b = c_g = 0` and this is classic reservoir sampling,
  * which CAS-R gets by feeding an [[Abacus]] only insertions.
  */
final class RandomPairing(val k: Int, val sample: AdjacencySample, rng: SplittableRandom) {
  require(k >= 2, s"memory budget k must be >= 2, got $k")

  /** |E|: number of stream edges currently alive (inserted, not deleted). */
  private var numEdges: Long = 0L
  private var cbCount: Long = 0L
  private var cgCount: Long = 0L

  def streamEdgeCount: Long = numEdges
  def cb: Long = cbCount
  def cg: Long = cgCount

  /** Apply one stream element and return the changes it makes to S, in
    * order. A change of the arriving edge is the arriving element itself.
    */
  def apply(el: StreamElement): Seq[StreamElement] =
    if (el.isInsert) insert(el) else delete(el)

  /** Algorithm 2, `InsertToSample`. */
  private def insert(el: StreamElement): Seq[StreamElement] = {
    numEdges += 1
    if (cbCount + cgCount == 0) {
      if (sample.size < k) add(el)
      else if (rng.nextDouble() < k.toDouble / numEdges) {
        val victim = sample.randomEdge(rng)
        sample.remove(victim)
        sample.add(el.edge)
        ArraySeq(StreamElement(victim, isInsert = false), el)
      } else Nil
    } else {
      if (rng.nextDouble() < cbCount.toDouble / (cbCount + cgCount)) {
        cbCount -= 1
        add(el)
      } else {
        cgCount -= 1
        Nil
      }
    }
  }

  /** Algorithm 2, `DeleteFromSample`. */
  private def delete(el: StreamElement): Seq[StreamElement] = {
    numEdges -= 1
    if (sample.contains(el.edge)) {
      cbCount += 1
      sample.remove(el.edge)
      el :: Nil
    } else {
      cgCount += 1
      Nil
    }
  }

  private def add(el: StreamElement): Seq[StreamElement] = {
    sample.add(el.edge)
    el :: Nil
  }
}
