package repro.core

import org.apache.spark.sql.SparkSession

/** Per-partition result of the parallel counting phase.
  *
  * @param partition   partition (thread) index
  * @param partialCount sum of extrapolated per-edge counts c_i for the range
  * @param work        set-intersection probes performed (load metric, §VI-G)
  * @param found       butterflies discovered through the sample versions
  * @param edges       number of mini-batch edges the partition processed
  */
final case class PartitionCount(partition: Int, partialCount: Double,
                                work: Long, found: Long, edges: Int) extends Serializable

/** PARABACUS (§V): the parallel mini-batch variant of ABACUS on Spark —
  * the [[Abacus]] core plus a fan-out of its counting step.
  *
  * Per mini-batch of M edges it:
  *  1. advances the Random Pairing sampler over the batch on the driver,
  *     recording a [[VersionedSampleSnapshot]] — each edge's Eq. 1 weight
  *     plus the change log of the sample, S_0 first, and where each version
  *     ends in it (O(M) time, O(k+M) space; Theorems 6, 7);
  *  2. broadcasts the snapshot and fans the per-edge butterfly counting out
  *     over `p` RDD partitions (the paper's p threads), each handling a
  *     contiguous equal-sized range of the batch against its own replayed
  *     sample versions;
  *  3. adds the partial counts `c_0..c_{M-1}` into the estimate.
  *
  * Version consolidation is implicit: the sample was already advanced to
  * version M during step 1 and serves as S_0 of the next batch.
  *
  * Given the same (stream, k, seed), PARABACUS produces the same estimates
  * as [[Abacus]] (Theorem 5) up to floating-point summation order.
  *
  * @param numPartitions p, the parallelism of the counting phase
  */
final class ParAbacus(k: Int, seed: Long, spark: SparkSession, val numPartitions: Int)
    extends Abacus(k, seed) {
  require(numPartitions >= 1, "need at least one partition")

  private val sc = spark.sparkContext

  /** Process one mini-batch and return the per-partition results, in
    * partition order (the load-balance table, Fig. 10, adds them up).
    */
  def processBatch(batch: IndexedSeq[StreamElement]): Seq[PartitionCount] = {
    if (batch.isEmpty) return Nil

    // Phase 1 (sequential, driver): advance the sampler, recording versions.
    val bc = sc.broadcast(advanceBatch(batch))

    // Phase 2 (parallel): per-edge counting, edge i against version i. The
    // closure captures only `bc` and `p`: the sampler state in `this` stays
    // on the driver and is not serializable.
    val p = numPartitions
    val results: Array[PartitionCount] =
      sc.parallelize(0 until p, p)
        .map(pid => ParAbacus.countRange(bc.value, pid, p))
        .collect()
    bc.destroy()

    // Phase 3: reduce partials in partition order (edge order overall).
    addPartials(results)
    results.toSeq
  }

  /** Process a whole stream in mini-batches of `miniBatchSize` edges. */
  def processAll(stream: Iterable[StreamElement], miniBatchSize: Int): Double = {
    stream.grouped(miniBatchSize).foreach(g => processBatch(g.toIndexedSeq))
    estimate
  }
}

object ParAbacus {

  /** Range of batch indices [lo, hi) owned by `pid` of `p` partitions —
    * contiguous, sizes differing by at most one ("p equal-sized sets").
    */
  def range(pid: Int, p: Int, m: Int): (Int, Int) =
    ((pid.toLong * m / p).toInt, ((pid + 1).toLong * m / p).toInt)

  /** Task body: count butterflies for the partition's edge range against
    * the replayed sample versions. Pure function of the snapshot — no RNG —
    * so the parallel phase is deterministic.
    */
  def countRange(snap: VersionedSampleSnapshot, pid: Int, p: Int): PartitionCount = {
    val (lo, hi) = range(pid, p, snap.batchSize)
    val replayer = new SampleReplayer(snap)
    val tally = new Abacus.Tally
    var i = lo
    while (i < hi) {
      replayer.advanceTo(i)
      tally.countEdge(replayer, snap.elemLeft(i), snap.elemRight(i), snap.weight(i))
      i += 1
    }
    PartitionCount(pid, tally.estimate, tally.work, tally.found, hi - lo)
  }
}
