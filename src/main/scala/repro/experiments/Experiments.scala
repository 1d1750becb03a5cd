package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.baselines.{Cas, Fleet}
import repro.core.{Abacus, ParAbacus, StreamElement}
import repro.graph.LiteDataset

/** Experiment harnesses behind the reproduced tables (one per Fig. 3–10 and
  * Table II). Each returns plain row case classes; [[Tables]] fixes each
  * table's parameters and prints the rows via [[TablePrinter]].
  */
object Experiments {

  /** Algorithms of the accuracy/throughput comparisons. */
  val Algorithms: Seq[String] = Seq("abacus", "fleet", "cas")

  /** Run one single-threaded algorithm over a stream; returns the estimate. */
  def runAlgorithm(name: String, k: Int, seed: Long,
                   stream: Iterable[StreamElement]): Double = name match {
    case "abacus" => new Abacus(k, seed).processAll(stream)
    case "fleet"  => new Fleet(k, seed).processAll(stream)
    case "cas"    => new Cas(k, seed).processAll(stream)
    case other    => sys.error(s"unknown algorithm $other")
  }

  /** JIT warm-up before timing: ABACUS over the first 20K elements. */
  private def warmUp(k: Int, seed: Long, stream: Seq[StreamElement]): Unit =
    runAlgorithm("abacus", k, seed, stream.take(20000))

  // ------------------------------------------------------------------
  // T3 / T5 — accuracy (Fig. 3 with α=20%, Fig. 5 with α=0%).
  // ------------------------------------------------------------------

  final case class AccuracyRow(dataset: String, k: Int, algorithm: String,
                               relError: Double)

  /** Mean relative error over `trials` seeded runs, per (k, alg). */
  def accuracy(d: LiteDataset, ks: Seq[Int], alpha: Double,
               trials: Int): Seq[AccuracyRow] = {
    val seedBase = 100L
    val stream = d.stream(alpha)
    val truth = d.exactFinalCount(alpha).toDouble
    for {
      k <- ks
      alg <- Algorithms
    } yield {
      val errs = (0 until trials).map { t =>
        val est = runAlgorithm(alg, k, seedBase + 7919L * t, stream)
        Metrics.relativeError(truth, est)
      }
      AccuracyRow(d.name, k, alg, Metrics.mean(errs))
    }
  }

  // ------------------------------------------------------------------
  // T4 — throughput (Fig. 4).
  // ------------------------------------------------------------------

  final case class ThroughputRow(dataset: String, k: Int, algorithm: String,
                                 edgesPerSec: Double)

  /** Throughput of the single-threaded algorithms plus ABACUS on the
    * insertions only ("Ins-only") and PARABACUS with `miniBatch`/`partitions`.
    */
  def throughputAll(spark: SparkSession, d: LiteDataset,
                    ks: Seq[Int], alpha: Double, miniBatch: Int,
                    partitions: Int): Seq[ThroughputRow] = {
    val seed = 42L
    val stream = d.stream(alpha)
    val insOnly = stream.filter(_.isInsert)
    ks.flatMap { k =>
      // Report the best of two timed runs so a stray GC pause cannot
      // distort a rate.
      warmUp(k, seed, stream)
      val singles = Algorithms.map { alg =>
        val ns = Metrics.timedMinNanos(2)(runAlgorithm(alg, k, seed, stream))
        ThroughputRow(d.name, k, alg, Metrics.throughput(stream.size.toLong, ns))
      }
      val insNs = Metrics.timedMinNanos(2)(runAlgorithm("abacus", k, seed, insOnly))
      val insRow = ThroughputRow(d.name, k, "abacus-ins-only",
        Metrics.throughput(insOnly.size.toLong, insNs))
      val paNs = Metrics.timedMinNanos(2)(
        new ParAbacus(k, seed, spark, partitions).processAll(stream, miniBatch))
      val paRow = ThroughputRow(d.name, k, s"parabacus(M=$miniBatch,p=$partitions)",
        Metrics.throughput(stream.size.toLong, paNs))
      singles :+ insRow :+ paRow
    }
  }

  // ------------------------------------------------------------------
  // T6 — impact of deletion ratio α (Fig. 6).
  // ------------------------------------------------------------------

  final case class DeletionImpactRow(dataset: String, alpha: Double,
                                     relError: Double, edgesPerSec: Double)

  def deletionImpact(d: LiteDataset, alphas: Seq[Double], k: Int,
                     trials: Int): Seq[DeletionImpactRow] = {
    val seedBase = 300L
    alphas.map { alpha =>
      val stream = d.stream(alpha)
      val truth = d.exactFinalCount(alpha).toDouble
      warmUp(k, seedBase, stream)
      val runs = (0 until trials).map { t =>
        val a = new Abacus(k, seedBase + 104729L * t)
        val (_, ns) = Metrics.timed(a.processAll(stream))
        (Metrics.relativeError(truth, a.estimate), ns)
      }
      // Mean error over trials; throughput from the fastest trial (min time)
      // so a stray GC pause does not masquerade as an alpha effect.
      DeletionImpactRow(d.name, alpha,
        Metrics.mean(runs.map(_._1)),
        Metrics.throughput(stream.size.toLong, runs.map(_._2).min))
    }
  }

  // ------------------------------------------------------------------
  // T7 — scalability: elapsed time vs stream prefix (Fig. 7).
  // ------------------------------------------------------------------

  final case class ScalabilityRow(dataset: String, k: Int, fractionPct: Int,
                                  elapsedMs: Double)

  /** Cumulative elapsed time after each 10% of the stream, per sample size.
    * The sweep runs twice and reports the per-decile minimum of the
    * cumulative times, so one GC pause cannot bend the linearity curve.
    */
  def scalability(d: LiteDataset, ks: Seq[Int], alpha: Double): Seq[ScalabilityRow] = {
    val seed = 500L
    val stream = d.stream(alpha)
    val n = stream.size
    ks.flatMap { k =>
      warmUp(k, seed, stream)
      def sweep(): IndexedSeq[Long] = {
        val a = new Abacus(k, seed)
        var elapsed = 0L
        (1 to 10).map { decile =>
          val from = (n.toLong * (decile - 1) / 10).toInt
          val until = (n.toLong * decile / 10).toInt
          val (_, ns) = Metrics.timed {
            var i = from
            while (i < until) { a.process(stream(i)); i += 1 }
          }
          elapsed += ns
          elapsed
        }
      }
      val best = sweep().zip(sweep()).map { case (x, y) => math.min(x, y) }
      (1 to 10).map(dc => ScalabilityRow(d.name, k, dc * 10, best(dc - 1) / 1e6))
    }
  }

  // ------------------------------------------------------------------
  // T8 / T9 — PARABACUS speedup (Figs. 8, 9).
  // ------------------------------------------------------------------

  final case class SpeedupRow(dataset: String, k: Int, miniBatch: Int,
                              partitions: Int, seqMs: Double, parMs: Double) {
    def speedup: Double = seqMs / parMs
  }

  /** Stream-length cap for the speedup experiments: long enough for ≥16
    * mini-batches of 10K edges and a filled large sample, short enough to
    * keep the many (M, p) sweeps affordable.
    */
  val SpeedupStreamCap = 160000

  /** Speedup of PARABACUS over sequential ABACUS, for every (k, miniBatch,
    * partitions) combination requested, on a stream capped at
    * [[SpeedupStreamCap]] elements. Both sides take the best of two timed
    * runs (except the overhead-dominated M<2000 configurations).
    */
  def speedup(spark: SparkSession, d: LiteDataset, ks: Seq[Int],
              miniBatches: Seq[Int], partitionCounts: Seq[Int],
              alpha: Double): Seq[SpeedupRow] = {
    val seed = 700L
    val stream = d.stream(alpha).take(SpeedupStreamCap)
    ks.flatMap { k =>
      // Warm both code paths.
      warmUp(k, seed, stream)
      new ParAbacus(k, seed, spark, 2).processAll(stream.take(20000), 2000)
      val seqNs = Metrics.timedMinNanos(2)(new Abacus(k, seed).processAll(stream))
      for {
        m <- miniBatches
        p <- partitionCounts
      } yield {
        val reps = if (m >= 2000) 2 else 1
        val parNs = Metrics.timedMinNanos(reps)(
          new ParAbacus(k, seed, spark, p).processAll(stream, m))
        SpeedupRow(d.name, k, m, p, seqNs / 1e6, parNs / 1e6)
      }
    }
  }

  // ------------------------------------------------------------------
  // T10 — per-partition workload (Fig. 10).
  // ------------------------------------------------------------------

  final case class LoadRow(dataset: String, partition: Int, work: Long,
                           edges: Long)

  /** Set-intersection probes accumulated per partition over the stream. */
  def loadBalance(spark: SparkSession, d: LiteDataset, k: Int,
                  miniBatch: Int, partitions: Int, alpha: Double): Seq[LoadRow] = {
    val pa = new ParAbacus(k, seed = 900L, spark, partitions)
    val parts =
      d.stream(alpha).grouped(miniBatch).flatMap(g => pa.processBatch(g.toIndexedSeq)).toSeq
    (0 until partitions).map { pid =>
      val mine = parts.filter(_.partition == pid)
      LoadRow(d.name, pid, mine.map(_.work).sum, mine.map(_.edges.toLong).sum)
    }
  }
}
