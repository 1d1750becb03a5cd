package repro.core

/** Immutable, broadcastable versioned sample for one mini-batch (§V-A).
  *
  * Version `i` (0 ≤ i < M) is the sample state the i-th edge of the
  * mini-batch observes: the base sample S_0 (state at batch start) plus
  * every delta produced by the RP updates of edges 0..i−1. Only the
  * *discrepancies* between versions are stored: delta `j` is visible from
  * version `deltaVersion(j)` onward; deltas are in creation order, so the
  * versions are non-decreasing.
  *
  * The paper caches each version's `{s, c_b, c_g}` triplet only so that
  * every thread can evaluate Eq. 1's increment `sgn(δ_i)/Pr(s_i, c_b,i, c_g,i)`;
  * the driver already computes that number while it advances the sampler,
  * so the snapshot carries it once per edge (`weight`) instead.
  *
  * Everything is held in parallel primitive arrays — the snapshot is
  * broadcast once per mini-batch and boxed per-element serialization was
  * the dominant PARABACUS overhead.
  */
final case class VersionedSampleSnapshot(
    // sample version S_0
    baseLeft: Array[Long], baseRight: Array[Long],
    // ordered sample deltas: visible-from version, add/remove flag, edge
    deltaVersion: Array[Int], deltaIsAdd: Array[Boolean],
    deltaLeft: Array[Long], deltaRight: Array[Long],
    // the mini-batch edges, in arrival order, and each one's Eq. 1 increment
    elemLeft: Array[Long], elemRight: Array[Long], weight: Array[Double],
) extends Serializable {
  /** Mini-batch size M. */
  def batchSize: Int = elemLeft.length
}

/** Forward-only reconstruction of sample versions from a snapshot.
  *
  * Builds S_0 once (O(k)) and then applies stored deltas in order, exposing
  * an [[AdjView]] of the current version. Each PARABACUS task owns one
  * replayer for its contiguous range of edges, so a task pays O(k + M) to
  * reconstruct and then walks versions incrementally.
  */
final class SampleReplayer(snap: VersionedSampleSnapshot) {
  private val adj: AdjacencySample = {
    val a = new AdjacencySample
    var i = 0
    while (i < snap.baseLeft.length) {
      a.add(Edge(snap.baseLeft(i), snap.baseRight(i)))
      i += 1
    }
    a
  }

  private var deltaIdx = 0

  /** Advance to version `v`: apply every delta visible from ≤ v. Versions
    * can only move forward.
    */
  def advanceTo(v: Int): Unit = {
    while (deltaIdx < snap.deltaVersion.length && snap.deltaVersion(deltaIdx) <= v) {
      val e = Edge(snap.deltaLeft(deltaIdx), snap.deltaRight(deltaIdx))
      if (snap.deltaIsAdd(deltaIdx)) adj.add(e) else adj.remove(e)
      deltaIdx += 1
    }
  }

  /** Adjacency view of the currently materialised version. */
  def view: AdjView = adj
}
