package repro.core

/** Immutable, broadcastable versioned sample for one mini-batch (§V-A).
  *
  * The sample S is stored as one change log: entry `j` inserts
  * (`isInsert(j)`) or deletes the edge `(left(j), right(j))`, and entries
  * are in creation order. The log starts with inserts of the base sample
  * S_0 (the state at batch start), followed by the Random Pairing changes of
  * the batch's edges. Version `v` (0 ≤ v ≤ M) is the log prefix
  * `0 until ends(v)`: S_0 for v = 0, and S_0 plus the changes of edges
  * 0..v−1 otherwise. The i-th edge of the mini-batch observes version i.
  *
  * The paper caches each version's `{s, c_b, c_g}` triplet so that every
  * thread can evaluate Eq. 1's increment `sgn(δ_i)/Pr(s_i, c_b,i, c_g,i)`.
  * Here the tasks count integers only: the driver computes each edge's
  * increment while it advances the sampler and keeps it, and the snapshot
  * carries no weights.
  *
  * Everything is held in parallel primitive arrays — the snapshot is
  * broadcast once per mini-batch and boxed per-element serialization was
  * the dominant PARABACUS overhead.
  */
final case class VersionedSampleSnapshot(
    // where each of the M+1 versions ends, then the log of S: insert/delete flag, edge
    ends: Array[Int], isInsert: Array[Boolean], left: Array[Long], right: Array[Long],
    // the mini-batch edges, in arrival order
    elemLeft: Array[Long], elemRight: Array[Long],
) extends Serializable {
  /** Mini-batch size M. */
  def batchSize: Int = elemLeft.length
}

/** Forward-only reconstruction of sample versions from a snapshot: an
  * [[Adjacency]] at the current version.
  *
  * It applies the change log in order; a fresh replayer is at version 0
  * (S_0, O(k)). Each PARABACUS task owns one replayer for its contiguous
  * range of edges, so a task pays O(k + M) to reconstruct and then walks
  * versions incrementally. The log is consistent by construction, so the
  * replayer keeps adjacency only: no edge registry, no [[Edge]] per entry.
  */
final class SampleReplayer(snap: VersionedSampleSnapshot) extends Adjacency {
  private var next = 0
  advanceTo(0)

  /** Advance to version `v`: apply every log entry below `ends(v)`.
    * Versions can only move forward.
    */
  def advanceTo(v: Int): Unit = {
    val end = snap.ends(v)
    while (next < end) {
      if (snap.isInsert(next)) link(snap.left(next), snap.right(next))
      else unlink(snap.left(next), snap.right(next))
      next += 1
    }
  }
}
