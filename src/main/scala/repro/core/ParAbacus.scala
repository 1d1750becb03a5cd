package repro.core

import org.apache.spark.sql.SparkSession

/** Per-partition result of the parallel counting phase: integers only, so
  * the estimate is built on the driver alone.
  *
  * @param partition   partition (thread) index
  * @param butterflies butterflies each edge of the range forms with its
  *                    sample version, in edge order
  * @param work        set-intersection probes performed (load metric, §VI-G)
  */
final case class PartitionCount(partition: Int, butterflies: Array[Long], work: Long)
    extends Serializable {
  /** Number of mini-batch edges the partition processed. */
  def edges: Int = butterflies.length
}

/** PARABACUS (§V): the parallel mini-batch variant of ABACUS on Spark —
  * the [[Abacus]] core plus a fan-out of its counting step.
  *
  * Per mini-batch of M edges it:
  *  1. advances the Random Pairing sampler over the batch on the driver,
  *     recording a [[VersionedSampleSnapshot]] — the change log of the
  *     sample, S_0 first, and where each version ends in it (O(M) time,
  *     O(k+M) space; Theorems 6, 7) — and keeps each edge's Eq. 1 weight;
  *  2. broadcasts the snapshot and fans the per-edge butterfly counting out
  *     over `p` RDD partitions (the paper's p threads), each handling a
  *     contiguous equal-sized range of the batch against its own replayed
  *     sample versions and returning each edge's butterflies and the work;
  *  3. adds each edge's butterflies at its weight into the estimate, in
  *     edge order, through the step [[Abacus.process]] uses.
  *
  * Version consolidation is implicit: the sample was already advanced to
  * version M during step 1 and serves as S_0 of the next batch.
  *
  * Given the same (stream, k, seed), PARABACUS produces bit for bit the
  * same estimate, work and butterflies found as [[Abacus]] (Theorem 5), for
  * any M and p.
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
    val (snap, weights) = advanceBatch(batch)
    val bc = sc.broadcast(snap)

    // Phase 2 (parallel): per-edge counting, edge i against version i. The
    // closure captures only `bc` and `p`: the sampler state in `this` stays
    // on the driver and is not serializable.
    val p = numPartitions
    val results: Array[PartitionCount] =
      sc.parallelize(0 until p, p)
        .map(pid => ParAbacus.countRange(bc.value, pid, p))
        .collect()
    bc.destroy()

    // Phase 3: add the counts in partition order (edge order overall).
    addCounts(weights, results)
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

  /** Task body: count butterflies for each edge of the partition's range
    * against the replayed sample versions. Pure function of the snapshot —
    * no RNG — so the parallel phase is deterministic.
    */
  def countRange(snap: VersionedSampleSnapshot, pid: Int, p: Int): PartitionCount = {
    val (lo, hi) = range(pid, p, snap.batchSize)
    val replayer = new SampleReplayer(snap)
    val butterflies = new Array[Long](hi - lo)
    var work = 0L
    var i = lo
    while (i < hi) {
      replayer.advanceTo(i)
      val r = ButterflyCounter.countForEdge(replayer, snap.elemLeft(i), snap.elemRight(i))
      butterflies(i - lo) = r.butterflies
      work += r.work
      i += 1
    }
    PartitionCount(pid, butterflies, work)
  }
}
