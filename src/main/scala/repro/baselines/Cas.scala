package repro.baselines

import repro.core.{Abacus, StreamElement}

/** CAS-R (Li et al., TKDE'22, "Approximately Counting Butterflies in Large
  * Bipartite Graph Streams") — the insert-only sampling+sketching baseline.
  *
  * Faithful-in-spirit reimplementation (no public source available offline;
  * see DESIGN.md "Substitutions"): of the total memory budget `k`, a
  * fraction λ = 0.33 (the ratio the paper uses for CAS-R) funds an
  * [[AmsSketch]] and the remaining (1−λ)·k funds a uniform edge reservoir.
  * Each arriving insertion (a) updates the AMS sketch — in CAS the sketch
  * corrects for repeated edges, an identity in our duplicate-free streams,
  * but its per-edge cost is what makes CAS slower than FLEET on some
  * datasets (§VI-C) — and (b) refines the estimate with the butterflies the
  * edge forms with the reservoir, scaled by the reciprocal of the
  * probability that the three older edges are all sampled (the insert-only
  * special case of Eq. 1). Without deletions Random Pairing *is* reservoir
  * sampling (Gemulla et al.), so (b) is an [[Abacus]] over the (1−λ)·k
  * reservoir that only ever sees insertions.
  *
  * **Deletions are ignored**, as in FLEET.
  */
final class Cas(val k: Int, seed: Long) {
  require(k >= 4, "memory budget too small")

  /** Edge-reservoir capacity: the (1−λ) share of the memory budget. */
  val reservoirCapacity: Int = math.max(2, ((1.0 - Cas.Lambda) * k).toInt)

  private val core = new Abacus(reservoirCapacity, seed)
  private val sketch = {
    // λ·k counters arranged as 5 rows (median of five row estimates).
    val rows = 5
    val cols = math.max(1, (Cas.Lambda * k).toInt / rows)
    new AmsSketch(rows, cols, seed ^ 0x5DEECE66DL)
  }

  private var skippedDeletions: Long = 0L

  /** Current butterfly count estimate. */
  def estimate: Double = core.estimate

  /** Current reservoir size. */
  def reservoirSize: Int = core.sampleSize

  /** Deletions seen and discarded. */
  def deletionsIgnored: Long = skippedDeletions

  /** F2 estimate of the edge-endpoint frequency vector (sketch health). */
  def sketchF2: Double = sketch.estimateF2

  /** Process one stream element (deletions are discarded). */
  def process(el: StreamElement): Unit = {
    if (!el.isInsert) { skippedDeletions += 1; return }
    val e = el.edge
    if (core.isSampled(e)) return
    // Sketch update: co-affiliation key = the edge identity.
    sketch.update(e.left * 0x9E3779B97F4A7C15L + e.right)
    core.process(el)
  }

  /** Process a whole stream. */
  def processAll(stream: IterableOnce[StreamElement]): Double = {
    stream.iterator.foreach(process)
    estimate
  }
}

object Cas {
  /** λ, the sketch's share of the memory budget (the paper's value, §VI-A). */
  val Lambda = 0.33
}
