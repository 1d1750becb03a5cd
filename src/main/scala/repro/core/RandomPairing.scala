package repro.core

import java.util.SplittableRandom
import RandomPairing.{Applied, Change, Replaced, Unchanged}

/** Random Pairing (Gemulla et al., VLDBJ'08) over an [[AdjacencySample]] —
  * Algorithm 2 of the paper.
  *
  * Maintains a uniform random sample of at most `k` edges from a fully
  * dynamic stream. Deletions are "paired" with subsequent insertions through
  * the compensation counters:
  *   - `cb` ("bad"): uncompensated deletions of edges that *were* sampled,
  *   - `cg` ("good"): uncompensated deletions of edges that were not.
  *
  * Each element changes the sample S in one of three ways, and [[apply]]
  * says which as a [[RandomPairing.Change]]: not at all, by the element's
  * own edge, or by evicting a victim before inserting the element.
  * [[Abacus.advanceBatch]] logs the changes as the versions of S for
  * PARABACUS; [[Abacus.process]] ignores them.
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

  /** Apply one stream element and return the change it makes to S. */
  def apply(el: StreamElement): Change =
    if (el.isInsert) insert(el.edge) else delete(el.edge)

  /** Algorithm 2, `InsertToSample`. */
  private def insert(e: Edge): Change = {
    numEdges += 1
    if (cbCount + cgCount == 0) {
      if (sample.size < k) add(e)
      else if (rng.nextDouble() < k.toDouble / numEdges) {
        val victim = sample.randomEdge(rng)
        sample.remove(victim)
        sample.add(e)
        Replaced(victim)
      } else Unchanged
    } else {
      if (rng.nextDouble() < cbCount.toDouble / (cbCount + cgCount)) {
        cbCount -= 1
        add(e)
      } else {
        cgCount -= 1
        Unchanged
      }
    }
  }

  /** Algorithm 2, `DeleteFromSample`. */
  private def delete(e: Edge): Change = {
    numEdges -= 1
    if (sample.contains(e)) {
      cbCount += 1
      sample.remove(e)
      Applied
    } else {
      cgCount += 1
      Unchanged
    }
  }

  private def add(e: Edge): Change = {
    sample.add(e)
    Applied
  }
}

object RandomPairing {

  /** The change one stream element makes to S; `length` is the number of
    * edges that enter or leave S.
    */
  sealed abstract class Change(val length: Int)

  /** S is as it was. */
  case object Unchanged extends Change(0)

  /** The element's own edge entered S (an insert) or left it (a delete). */
  case object Applied extends Change(1)

  /** An insert evicted `victim`, a uniformly drawn sampled edge other than
    * the element's, and then entered S.
    */
  final case class Replaced(victim: Edge) extends Change(2)
}
