package repro.baselines

import java.util.SplittableRandom
import repro.core.{Abacus, AdjacencySample, StreamElement}

/** FLEET3 (Sanei-Mehri et al., CIKM'19) — the insert-only adaptive-reservoir
  * baseline, reimplemented from the paper's description.
  *
  * Maintains a reservoir of capacity `k` and a global sampling probability
  * `p` (initially 1). Every arriving *insertion* first refines the estimate
  * through ABACUS's per-edge step: the butterflies the edge forms with the
  * reservoir are weighted 1/p³ (each of the three older edges is in the
  * reservoir independently with probability p). The edge then enters the
  * reservoir with probability p; when the reservoir is full, every resident
  * edge is kept with probability γ = 0.75 (the value the butterfly paper
  * uses) and `p ← γ·p`.
  *
  * **Deletions are ignored** — FLEET targets insert-only streams; feeding it
  * a fully dynamic stream (as the paper's accuracy comparison does)
  * quantifies exactly that limitation.
  */
final class Fleet(val k: Int, seed: Long) {
  require(k >= 2, "reservoir capacity must be >= 2")

  private val reservoir = new AdjacencySample
  private val rng = new SplittableRandom(seed)
  private val tally = new Abacus.Tally

  private var p: Double = 1.0
  private var skippedDeletions: Long = 0L

  /** Current butterfly count estimate. */
  def estimate: Double = tally.estimate

  /** Current sampling probability. */
  def samplingProbability: Double = p

  /** Current reservoir size. */
  def reservoirSize: Int = reservoir.size

  /** Deletions seen and discarded (accuracy-loss bookkeeping for tests). */
  def deletionsIgnored: Long = skippedDeletions

  /** Process one stream element (deletions are discarded). */
  def process(el: StreamElement): Unit = {
    if (!el.isInsert) { skippedDeletions += 1; return }
    val e = el.edge
    // FLEET can see a re-insertion of an edge it already holds when the
    // upstream is fully dynamic (the deletion was discarded); skip it to
    // keep the reservoir a set.
    if (reservoir.contains(e)) return
    tally.countEdge(reservoir, e.left, e.right, 1.0 / (p * p * p))
    if (rng.nextDouble() < p) {
      reservoir.add(e)
      if (reservoir.size >= k) resize()
    }
  }

  /** Sub-sample the full reservoir: keep each edge w.p. γ, set p ← γ·p. */
  private def resize(): Unit = {
    val edges = reservoir.snapshotEdges()
    edges.foreach { e => if (rng.nextDouble() >= Fleet.Gamma) reservoir.remove(e) }
    p *= Fleet.Gamma
  }

  /** Process a whole stream. */
  def processAll(stream: IterableOnce[StreamElement]): Double = {
    stream.iterator.foreach(process)
    estimate
  }
}

object Fleet {
  /** γ, the share of the reservoir a resize keeps (the paper's value, §VI-A). */
  val Gamma = 0.75
}
