package repro.core

import java.util.{Arrays, SplittableRandom}

/** ABACUS (Algorithm 1): approximate butterfly counting over a fully
  * dynamic bipartite graph stream.
  *
  * For every arriving element it (1) counts the butterflies the element's
  * edge forms with the current Random Pairing sample and refines the
  * estimate by `sgn(δ)/Pr(|E|, c_b, c_g)` per butterfly, then (2) applies
  * the Random Pairing sample update. Space is O(k); time is O(k² t) for t
  * elements (Theorems 3, 4).
  *
  * This class is the only owner of the sampler and estimator state.
  * [[ParAbacus]] extends it and drives the same state a mini-batch at a
  * time: it advances the sampler over the batch first ([[advanceBatch]]),
  * counts the batch in parallel against the recorded versions, then adds
  * each edge's butterflies back at the edge's weight ([[addCounts]]). Both
  * paths add through the same step ([[Abacus.Tally.add]]) in edge order, so
  * the two make the same floating-point additions (Theorem 5, bit for bit).
  *
  * @param k    memory budget: maximum number of sampled edges (≥ 2)
  * @param seed seed for the sampling RNG — runs are deterministic in
  *             (stream, k, seed), which the PARABACUS equivalence tests rely on
  */
class Abacus(val k: Int, seed: Long) {
  private val sample = new AdjacencySample
  /** The Random Pairing sampler over `sample`: |E|, c_b, c_g and S. */
  private[core] val rp = new RandomPairing(k, sample, new SplittableRandom(seed))
  private val tally = new Abacus.Tally
  private var processedCount: Long = 0L

  /** Current butterfly count estimate c. */
  def estimate: Double = tally.estimate

  /** Elements processed so far. */
  def processed: Long = processedCount

  /** Total set-intersection probes spent (workload metric, §VI-G). */
  def totalWork: Long = tally.work

  /** Total butterflies discovered through the sample (pre-extrapolation). */
  def totalFound: Long = tally.found

  /** Current sample size |S|. */
  def sampleSize: Int = sample.size

  /** Live stream edge count |E| (for tests of the RP bookkeeping). */
  def streamEdgeCount: Long = rp.streamEdgeCount

  /** Whether edge `e` is currently in the sample S. */
  def isSampled(e: Edge): Boolean = sample.contains(e)

  /** Process one stream element: refine the count, then update the sample. */
  def process(el: StreamElement): Unit = {
    tally.countEdge(sample, el.edge.left, el.edge.right, weight(el))
    rp.apply(el)
    processedCount += 1
  }

  /** Algorithm 1, line 6: the weight `sgn(δ)/Pr(|E|, c_b, c_g)` of each
    * butterfly `el` forms. Evaluate it *before* `rp.apply(el)`: the
    * increment uses the RP state before this element's sample update
    * (Appendix B uses p^{(s-1)}).
    */
  private def weight(el: StreamElement): Double =
    DiscoveryProbability.increment(el.sign, rp.streamEdgeCount, rp.cb, rp.cg, k)

  /** Process a whole stream (convenience for tests and benchmarks). */
  def processAll(stream: IterableOnce[StreamElement]): Double = {
    stream.iterator.foreach(process)
    estimate
  }

  /** PARABACUS phase 1: advance the sampler over a whole mini-batch without
    * counting, and record every sample version the batch's edges observe —
    * one change log of S that starts with S_0, and where each version ends
    * in it (O(M) time, O(k+M) space; Theorems 6, 7). Version i+1 adds edge
    * i's change: the element itself, or for a [[RandomPairing.Replaced]] the
    * victim's delete and then the element. Returns the snapshot and each
    * edge's [[weight]] before its update; the weights stay on the driver,
    * for [[addCounts]].
    */
  private[core] def advanceBatch(
      batch: IndexedSeq[StreamElement]): (VersionedSampleSnapshot, Array[Double]) = {
    val m = batch.length
    val elemLeft = new Array[Long](m)
    val elemRight = new Array[Long](m)
    val weights = new Array[Double](m)
    val ends = new Array[Int](m + 1)
    // The log is S_0 plus at most two changes per edge; trimmed at the end.
    val s0 = sample.size
    val capacity = s0 + 2 * m
    val isInsert = new Array[Boolean](capacity)
    val left = new Array[Long](capacity)
    val right = new Array[Long](capacity)
    sample.copyEdgesTo(left, right)
    Arrays.fill(isInsert, 0, s0, true)
    var n = s0
    def log(insert: Boolean, e: Edge): Unit = {
      isInsert(n) = insert; left(n) = e.left; right(n) = e.right
      n += 1
    }
    var i = 0
    while (i < m) {
      ends(i) = n
      val el = batch(i)
      elemLeft(i) = el.edge.left; elemRight(i) = el.edge.right
      weights(i) = weight(el)
      rp.apply(el) match {
        case RandomPairing.Unchanged =>
        case RandomPairing.Applied => log(el.isInsert, el.edge)
        case RandomPairing.Replaced(victim) => log(insert = false, victim); log(insert = true, el.edge)
      }
      i += 1
    }
    ends(m) = n
    (VersionedSampleSnapshot(ends, Arrays.copyOf(isInsert, n), Arrays.copyOf(left, n),
      Arrays.copyOf(right, n), elemLeft, elemRight), weights)
  }

  /** PARABACUS phase 3: add the per-edge butterflies of a batch advanced by
    * [[advanceBatch]], each at its edge's weight, in edge order. `parts`
    * must cover the batch's edges in order: their `butterflies` arrays,
    * concatenated, line up with `weights`.
    */
  private[core] def addCounts(weights: Array[Double], parts: Iterable[PartitionCount]): Unit = {
    var i = 0
    parts.foreach { r =>
      r.butterflies.foreach { b => tally.add(b, weights(i)); i += 1 }
      tally.work += r.work
    }
    require(i == weights.length, s"counted $i of ${weights.length} edges")
    processedCount += i
  }
}

object Abacus {

  /** Running sums of Algorithm 1's per-edge step: the estimate, the
    * set-intersection probes and the butterflies found. FLEET counts
    * through the same step with its own reservoir and weight 1/p³.
    */
  private[repro] final class Tally {
    var estimate: Double = 0.0
    var work: Long = 0L
    var found: Long = 0L

    /** Algorithm 1, lines 5–11, for one edge `{u, v}`: count the butterflies
      * it forms with `view`, and add each with `weight`, the edge's
      * `sgn(δ)/Pr(|E|, c_b, c_g)` for the Random Pairing state that `view`
      * is a sample of.
      */
    def countEdge(view: Adjacency, u: Long, v: Long, weight: Double): Unit = {
      val r = ButterflyCounter.countForEdge(view, u, v)
      work += r.work
      add(r.butterflies, weight)
    }

    /** Add one edge's `butterflies`, each at `weight`: the only place the
      * estimate and the found count change, for every driver.
      */
    def add(butterflies: Long, weight: Double): Unit =
      if (butterflies > 0) {
        estimate += butterflies * weight
        found += butterflies
      }
  }
}
