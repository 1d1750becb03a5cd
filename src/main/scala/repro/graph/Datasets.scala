package repro.graph

import repro.SynthData
import repro.core.{ExactButterflyCounter, StreamElement}
import scala.collection.concurrent.TrieMap

/** Paper-reported statistics of the original KONECT dataset (Table II),
  * kept next to each synthetic analog for the EXPERIMENTS.md diff.
  */
final case class PaperStats(edges: Double, left: Double, right: Double,
                            butterflies: Double, density: Double)

/** Configuration of one synthetic dataset analog.
  *
  * The four real KONECT graphs of the paper (Table II) are not available
  * offline, so each is replaced by a seeded zipf bipartite graph at ~1/1000
  * scale whose *relative* characteristics (size ordering and butterfly
  * density ordering) match the original — see DESIGN.md "Substitutions".
  */
final case class LiteDataset(name: String, nL: Int, nR: Int, m: Int,
                             alphaL: Double, alphaR: Double, seed: Long,
                             paper: PaperStats) {
  /** Edges in arrival order (deterministic; cached per config). */
  def edges: IndexedSeq[(Long, Long)] = Datasets.edgesOf(this)

  /** Fully dynamic stream with deletion ratio `alpha` (cached). */
  def stream(alpha: Double, seed: Long = 7L): Vector[StreamElement] =
    Datasets.streamOf(this, alpha, seed)

  /** Exact butterfly count at the end of `stream(alpha, seed)` (cached). */
  def exactFinalCount(alpha: Double, seed: Long = 7L): Long =
    Datasets.exactFinalOf(this, alpha, seed)

  /** Sample sizes for the accuracy/throughput sweeps: |E|/100, |E|/50,
    * |E|/25 — the paper's 75K/150K/300K scaled to each analog so the
    * discovery probability (k/|E|)³ spans the same range on every dataset.
    */
  def sampleSizes: Seq[Int] = Seq(m / 100, m / 50, m / 25)

  /** Larger sample sizes for the speedup benches (the paper's §VI-G point:
    * bigger samples mean more per-edge work, so parallelism pays off).
    */
  def speedupSampleSizes: Seq[Int] = Seq(m / 20, m / 10, m / 5)
}

/** Measured statistics of a generated analog (our Table II row). */
final case class DatasetStats(name: String, edges: Long, left: Long, right: Long,
                              butterflies: Long, density: Double)

/** The four dataset analogs, ordered as in Table II. */
object Datasets {

  /** MovieLens analog: small, very dense — the highest butterfly density. */
  val movielensLite: LiteDataset = LiteDataset(
    "movielens-lite", nL = 3000, nR = 500, m = 80000,
    alphaL = 0.7, alphaR = 0.7, seed = 11L,
    PaperStats(10e6, 69.8e3, 10.6e3, 1.1e12, 1.1e-16))

  /** LiveJournal analog: larger vertex sets, moderate density. */
  val livejournalLite: LiteDataset = LiteDataset(
    "livejournal-lite", nL = 30000, nR = 40000, m = 150000,
    alphaL = 1.0, alphaR = 1.0, seed = 13L,
    PaperStats(112e6, 3.2e6, 10.7e6, 3.3e12, 2.1e-20))

  /** Trackers analog: strongly right-skewed (tracker hubs). */
  val trackersLite: LiteDataset = LiteDataset(
    "trackers-lite", nL = 60000, nR = 3000, m = 200000,
    alphaL = 0.8, alphaR = 0.9, seed = 17L,
    PaperStats(140.6e6, 27.6e6, 12.7e6, 20.0e12, 5.1e-20))

  /** Orkut analog: the largest and sparsest in butterflies. */
  val orkutLite: LiteDataset = LiteDataset(
    "orkut-lite", nL = 30000, nR = 80000, m = 300000,
    alphaL = 0.85, alphaR = 0.85, seed = 19L,
    PaperStats(327e6, 2.7e6, 8.73e6, 22.1e12, 1.9e-21))

  /** All analogs in Table II order. */
  val all: Seq[LiteDataset] =
    Seq(movielensLite, livejournalLite, trackersLite, orkutLite)

  // ---- caches (experiments reuse graphs/streams/ground truths heavily) ----
  private val edgeCache = TrieMap.empty[String, IndexedSeq[(Long, Long)]]
  private val streamCache = TrieMap.empty[(String, Double, Long), Vector[StreamElement]]
  private val exactCache = TrieMap.empty[(String, Double, Long), Long]

  private[graph] def edgesOf(d: LiteDataset): IndexedSeq[(Long, Long)] =
    edgeCache.getOrElseUpdate(d.name,
      scala.collection.immutable.ArraySeq.unsafeWrapArray(
        SynthData.bipartiteEdgesLocal(d.nL, d.nR, d.m, d.alphaL, d.alphaR, d.seed)))

  private[graph] def streamOf(d: LiteDataset, alpha: Double, seed: Long): Vector[StreamElement] =
    streamCache.getOrElseUpdate((d.name, alpha, seed),
      StreamGen.fullyDynamic(edgesOf(d), alpha, seed))

  private[graph] def exactFinalOf(d: LiteDataset, alpha: Double, seed: Long): Long =
    exactCache.getOrElseUpdate((d.name, alpha, seed),
      new ExactButterflyCounter().processAll(streamOf(d, alpha, seed)))

  /** Measured Table II row for one analog (exact counts; driver-side).
    * |B| is the cached exact count of the insert-only stream, which inserts
    * every edge once.
    */
  def stats(d: LiteDataset): DatasetStats = {
    val es = edgesOf(d)
    val left = es.iterator.map(_._1).toSet.size.toLong
    val right = es.iterator.map(_._2).toSet.size.toLong
    val b = exactFinalOf(d, 0.0, 7L)
    val pairs = (x: Long) => x.toDouble * (x - 1) / 2.0
    DatasetStats(d.name, es.length.toLong, left, right, b,
      if (left >= 2 && right >= 2) b / (pairs(left) * pairs(right)) else 0.0)
  }
}
