package repro.core

import java.util.SplittableRandom
import scala.collection.immutable.ArraySeq

/** A mutation Random Pairing applies to the graph sample S.
  *
  * [[Abacus.advanceBatch]] records these so that PARABACUS can store the
  * *discrepancies* between consecutive sample versions (§V-A) instead of
  * materialising every version.
  */
sealed trait SampleDelta extends Serializable { def edge: Edge }
final case class AddToSample(edge: Edge)      extends SampleDelta
final case class RemoveFromSample(edge: Edge) extends SampleDelta

/** Random Pairing (Gemulla et al., VLDBJ'08) over an [[AdjacencySample]] —
  * Algorithm 2 of the paper.
  *
  * Maintains a uniform random sample of at most `k` edges from a fully
  * dynamic stream. Deletions are "paired" with subsequent insertions through
  * the compensation counters:
  *   - `cb` ("bad"): uncompensated deletions of edges that *were* sampled,
  *   - `cg` ("good"): uncompensated deletions of edges that were not.
  *
  * Every mutation of the sample is returned as a sequence of [[SampleDelta]]s
  * so [[Abacus.advanceBatch]] can version the sample for PARABACUS;
  * [[Abacus.process]] ignores them. Without deletions `c_b = c_g = 0` and
  * [[insert]] is classic reservoir sampling, which CAS-R drives directly.
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

  /** Apply one stream element and return the sample mutations performed. */
  def apply(el: StreamElement): Seq[SampleDelta] =
    if (el.isInsert) insert(el.edge) else delete(el.edge)

  /** Algorithm 2, `InsertToSample`. */
  def insert(e: Edge): Seq[SampleDelta] = {
    numEdges += 1
    if (cbCount + cgCount == 0) {
      if (sample.size < k) add(e)
      else if (rng.nextDouble() < k.toDouble / numEdges) {
        val victim = sample.randomEdge(rng)
        sample.remove(victim)
        sample.add(e)
        ArraySeq(RemoveFromSample(victim), AddToSample(e))
      } else Nil
    } else {
      if (rng.nextDouble() < cbCount.toDouble / (cbCount + cgCount)) {
        cbCount -= 1
        add(e)
      } else {
        cgCount -= 1
        Nil
      }
    }
  }

  /** Algorithm 2, `DeleteFromSample`. */
  def delete(e: Edge): Seq[SampleDelta] = {
    numEdges -= 1
    if (sample.contains(e)) {
      cbCount += 1
      sample.remove(e)
      ArraySeq(RemoveFromSample(e))
    } else {
      cgCount += 1
      Nil
    }
  }

  private def add(e: Edge): Seq[SampleDelta] = {
    sample.add(e)
    ArraySeq(AddToSample(e))
  }
}
