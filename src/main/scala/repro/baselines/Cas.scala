package repro.baselines

import java.util.SplittableRandom
import repro.core.{AdjacencySample, ButterflyCounter, DiscoveryProbability, RandomPairing, StreamElement}

/** CAS-R (Li et al., TKDE'22, "Approximately Counting Butterflies in Large
  * Bipartite Graph Streams") — the insert-only sampling+sketching baseline.
  *
  * Faithful-in-spirit reimplementation (no public source available offline;
  * see DESIGN.md "Substitutions"): of the total memory budget `k`, a
  * fraction λ (default 0.33, the ratio the paper uses for CAS-R) funds an
  * [[AmsSketch]] and the remaining (1−λ)·k funds a uniform edge reservoir.
  * Each arriving insertion (a) updates the AMS sketch — in CAS the sketch
  * corrects for repeated edges, an identity in our duplicate-free streams,
  * but its per-edge cost is what makes CAS slower than FLEET on some
  * datasets (§VI-C) — and (b) refines the estimate with the butterflies the
  * edge forms with the reservoir, scaled by the reciprocal of the
  * probability that the three older edges are all sampled (the insert-only
  * special case of Eq. 1). Without deletions Random Pairing *is* reservoir
  * sampling (Gemulla et al.), so the reservoir is a [[RandomPairing]] that
  * only ever sees insertions.
  *
  * **Deletions are ignored**, as in FLEET.
  */
final class Cas(val k: Int, lambda: Double, seed: Long) {
  require(k >= 4, "memory budget too small")
  require(lambda > 0 && lambda < 1, "lambda must be in (0,1)")

  /** Edge-reservoir capacity: the (1−λ) share of the memory budget. */
  val reservoirCapacity: Int = math.max(2, ((1.0 - lambda) * k).toInt)

  private val reservoir = new AdjacencySample
  private val rp = new RandomPairing(reservoirCapacity, reservoir, new SplittableRandom(seed))
  private val sketch = {
    // λ·k counters arranged as 5 rows (median of five row estimates).
    val rows = 5
    val cols = math.max(1, (lambda * k).toInt / rows)
    new AmsSketch(rows, cols, seed ^ 0x5DEECE66DL)
  }

  private var est: Double = 0.0
  private var skippedDeletions: Long = 0L

  /** Current butterfly count estimate. */
  def estimate: Double = est

  /** Current reservoir size. */
  def reservoirSize: Int = reservoir.size

  /** Deletions seen and discarded. */
  def deletionsIgnored: Long = skippedDeletions

  /** F2 estimate of the edge-endpoint frequency vector (sketch health). */
  def sketchF2: Double = sketch.estimateF2

  /** Process one stream element (deletions are discarded). */
  def process(el: StreamElement): Unit = {
    if (!el.isInsert) { skippedDeletions += 1; return }
    val e = el.edge
    if (reservoir.contains(e)) return
    // Sketch update: co-affiliation key = the edge identity.
    sketch.update(e.left * 0x9E3779B97F4A7C15L + e.right)
    // Pr(3 specific older edges sampled) for a size-c reservoir over the
    // insertions seen so far — the cb=cg=0 case of Eq. 1.
    val r = ButterflyCounter.countForEdge(reservoir, e.left, e.right)
    if (r.butterflies > 0)
      est += r.butterflies / DiscoveryProbability(rp.streamEdgeCount, 0, 0, reservoirCapacity)
    rp(el)
  }

  /** Process a whole stream. */
  def processAll(stream: IterableOnce[StreamElement]): Double = {
    stream.iterator.foreach(process)
    est
  }
}

object Cas {
  /** λ used in the paper's evaluation for CAS-R (§VI-A). */
  val DefaultLambda = 0.33
}
