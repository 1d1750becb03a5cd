package perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}
import java.util.SplittableRandom
import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.Datasets
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One benchmark run of one workload: set-up, the ABACUS baseline, the
  * PARABACUS `processBatch` loop, the open-loop Structured Streaming
  * ladder and the estimator's retained heap. With `--trace 1` it also
  * times the calls into every layer and reports the per-layer split.
  *
  * Every estimate is checked against the ABACUS estimate after the same
  * stream prefix (Theorem 5); a mismatch or a throw is a failed operation.
  * The last stdout line starting with `PERFBENCH_RESULT` carries the
  * metrics, and the `PERFBENCH_DETAILS` line the environment, the windows
  * of the ladder and the warnings.
  */
object Main {

  final case class Config(workload: String, dataset: String, alpha: Double, k: Int,
                          batch: Int, parElements: Int, rounds: Int, windowS: Double,
                          rates: Seq[Double], latencyLimitMs: Double, seed: Long,
                          trace: Boolean, prefix: Int, outDir: String)

  /** Set-up is repeated this many times and its median reported. */
  private val SetupReps = 7
  /** Untimed PARABACUS passes before the rounds: pass times keep falling
    * until the task body and Spark's job path are compiled, which takes a
    * few hundred jobs. ABACUS needs none beyond the reference pass.
    */
  private val ParWarmPasses = 2
  private val ParWarmNs = 3000000000L
  /** Untimed micro-batches that start the streaming query. */
  private val StreamWarmBatches = 10
  /** Streaming latency keeps falling over the first windows of the query,
    * so it first runs one untimed window of this length per rate.
    */
  private val WarmWindowS = 1.0
  /** Theorem 5 holds up to floating-point summation order. */
  private val RelTol = 1e-9

  private def parse(args: Array[String]): Config = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, sys.error(s"missing --$k"))
    Config(get("workload"), get("dataset"), get("alpha").toDouble, get("k").toInt,
      get("batch").toInt, get("par-elements").toInt, get("rounds").toInt,
      get("window-s").toDouble, get("rates").split(',').map(_.toDouble).toSeq,
      get("latency-limit-ms").toDouble, get("seed").toLong, get("trace") == "1", m.getOrElse("prefix", "0").toInt, get("out"))
  }

  /** Accumulates metrics, operation counts and warnings of one run. */
  final class Report {
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    val details = mutable.LinkedHashMap.empty[String, Any]
    val warnings = ArrayBuffer.empty[String]
    var attempted = 0L
    var failed = 0L

    def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

    def warn(msg: String): Unit = { warnings += msg; println(s"WARNING $msg") }

    def op(ok: Boolean, what: => String): Unit = {
      attempted += 1
      if (!ok) { failed += 1; warn(s"failed operation: $what") }
    }
  }

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= RelTol * math.max(1.0, math.abs(b))

  private def session(p: Int, dir: File): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$p]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(dir, "spark-local").getAbsolutePath)
      .config("spark.sql.shuffle.partitions", p.toLong)
      .config("spark.sql.streaming.checkpointLocation", new File(dir, "checkpoints").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cfg = parse(args)
    val report = new Report
    val spans = new Spans
    val code =
      try {
        val state = new AtomicReference[Abacus](run(cfg, jvmStartMs, report, spans))
        val sampled = state.get.sampleSize
        val bytes = retainedBytes(state)
        if (!cfg.trace) report.metric("state_mb", bytes / 1e6, "MB")
        report.details ++= Seq("state_mb" -> bytes / 1e6, "sample_edges" -> sampled,
          "state_bytes_per_sample_edge" -> bytes / sampled)
        0
      } catch { case e: Throwable => e.printStackTrace(); 1 }
    if (cfg.trace) spans.writeTo(new File(cfg.outDir, s"spans-${cfg.workload}-seed${cfg.seed}.jsonl"))
    if (code == 0) {
      println("PERFBENCH_DETAILS " + Json.value(report.details ++ Map("warnings" -> report.warnings)))
      println("PERFBENCH_RESULT " + Json.value(Map(
        "correct" -> (report.failed == 0),
        "attempted" -> report.attempted,
        "failed" -> report.failed,
        "metrics" -> report.metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) })))
    }
    System.out.flush()
    sys.exit(code)
  }

  /** Runs every phase and returns the ABACUS estimator that processed the
    * whole stream, for the retained-heap measurement.
    */
  private def run(cfg: Config, jvmStartMs: Long, report: Report, spans: Spans): Abacus = {
    val p = Runtime.getRuntime.availableProcessors
    val d = Datasets.all.find(_.name == cfg.dataset).getOrElse(sys.error(s"no dataset ${cfg.dataset}"))
    val samplerSeed = new SplittableRandom(cfg.seed).nextLong()
    val dir = new File(cfg.outDir, "tmp")
    dir.mkdirs()

    // ---- set-up: Spark session, dataset, stream; repeated, median kept ----
    var spark: SparkSession = null
    var els: Array[StreamElement] = null
    val setupS, sparkS, genS = ArrayBuffer.empty[Double]
    for (rep <- 0 until SetupReps) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(p, dir)
      val t1 = System.nanoTime()
      // A renamed copy misses the dataset cache, so each rep generates anew.
      val ds = d.copy(name = s"${d.name}#$rep")
      val stream = ds.stream(cfg.alpha, cfg.seed)
      els = (if (cfg.prefix > 0) stream.take(cfg.prefix) else stream).toArray
      val t2 = System.nanoTime()
      sparkS += (t1 - t0) / 1e9
      genS += (t2 - t1) / 1e9
      setupS += (if (rep == 0) (System.currentTimeMillis() - jvmStartMs) / 1e3 else (t2 - t0) / 1e9)
      spans.add("setup", t0, t2, attrs = Map("rep" -> rep, "spark_s" -> sparkS.last, "generate_s" -> genS.last))
    }
    val sc = spark.sparkContext
    val n = els.length
    val view = ArraySeq.unsafeWrapArray(els)
    report.metric("setup_s", Stats.median(setupS), "s")
    report.details ++= Seq("workload" -> cfg.workload, "dataset" -> cfg.dataset, "alpha" -> cfg.alpha,
      "k" -> cfg.k, "batch" -> cfg.batch, "p" -> p, "elements" -> n, "seed" -> cfg.seed,
      "setup_reps_s" -> setupS, "spark_version" -> spark.version,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6)
    val jobs = new JobListener
    if (cfg.trace) sc.addSparkListener(jobs)

    val phases = mutable.LinkedHashMap.empty[String, Double]
    def mark(name: String): Unit = phases(name) = (System.currentTimeMillis() - jvmStartMs) / 1e3
    report.details("phase_end_s") = phases
    mark("setup")

    // ---- ABACUS reference: the estimate after every element ----
    // Untimed: every later estimate, timed or not, is checked against it.
    val ref = new Array[Double](n)
    val rerun = new Array[Double](n)
    val reference = new Abacus(cfg.k, samplerSeed)
    var i0 = 0
    while (i0 < n) { reference.process(els(i0)); ref(i0) = reference.estimate; i0 += 1 }
    report.op(ok = true, "")
    val probes = reference.totalWork
    val found = reference.totalFound
    report.details("abacus_probes") = probes

    def abacusPass(): Double = {
      val ab = new Abacus(cfg.k, samplerSeed)
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) { ab.process(els(i)); rerun(i) = ab.estimate; i += 1 }
      val t1 = System.nanoTime()
      spans.add("abacus.pass", t0, t1, attrs = Map("elements" -> n))
      report.op(ab.estimate == ref(n - 1), s"ABACUS pass gave ${ab.estimate}, reference ${ref(n - 1)}")
      (t1 - t0) / 1e9
    }

    // ---- PARABACUS: closed-loop processBatch over a fixed prefix ----
    val pEls = math.min(cfg.parElements, n)
    val batches = (0 until pEls by cfg.batch).map(a => (a, math.min(pEls, a + cfg.batch)))
    val parts = ArrayBuffer.empty[(String, Seq[PartitionCount], Double)]
    def parPass(tag: Option[String]): Double = {
      val pa = new ParAbacus(cfg.k, samplerSeed, spark, p)
      val t0 = System.nanoTime()
      batches.zipWithIndex.foreach { case ((a, b), j) =>
        val jt = tag.map(t => s"$t/$j")
        sc.setLocalProperty(JobListener.Tag, jt.orNull)
        val bs = System.nanoTime()
        val ok =
          try {
            val r = pa.processBatch(view.slice(a, b))
            jt.foreach(t => parts += ((t, r, (System.nanoTime() - bs) / 1e6)))
            close(pa.estimate, ref(b - 1))
          } catch { case e: Exception => report.warn(s"processBatch threw $e"); false }
        val be = System.nanoTime()
        if (tag.isDefined) spans.add("parabacus.processBatch", bs, be, attrs = Map("tag" -> jt.get, "elements" -> (b - a)))
        report.op(ok, s"PARABACUS batch $j ending at ${b - 1} gave ${pa.estimate}, ABACUS ${ref(b - 1)}")
      }
      sc.setLocalProperty(JobListener.Tag, null)
      (System.nanoTime() - t0) / 1e9
    }

    // ---- warm-up: the JIT compiles the task body and Spark's job and
    // micro-batch paths before anything is timed ----
    val tW = System.nanoTime()
    var warmPasses = 0
    while (warmPasses < ParWarmPasses || System.nanoTime() - tW < ParWarmNs) {
      parPass(None)
      warmPasses += 1
    }
    val spa = new ParAbacus(cfg.k, samplerSeed, spark, p)
    val loop = new OpenLoop(spark, spa, els)
    for (_ <- 1 to StreamWarmBatches) loop.warmUp(math.min(500, n / 100))
    // The warm windows take at most a quarter of the stream; the timed ones
    // share the rest.
    val warmShare = (n - loop.position) / 4 / cfg.rates.length
    cfg.rates.foreach(rate =>
      loop.rung(rate, math.min(math.round(rate * WarmWindowS).toInt, warmShare), cfg.latencyLimitMs, graceMs = 2000))
    mark("warm-up")

    // ---- timed rounds ----
    // Each round times one ABACUS pass, one PARABACUS pass and one window of
    // the open-loop ladder (rates in turn), so every metric samples the whole
    // run: a slow spell of the shared host hits a few samples of each metric
    // instead of the whole phase of one.
    val abTimes, parTimes = ArrayBuffer.empty[Double]
    val rungs = ArrayBuffer.empty[Rung]
    for (r <- 0 until cfg.rounds) {
      System.gc() // each round starts from a collected heap
      abTimes += abacusPass()
      parTimes += parPass(None)
      val rate = cfg.rates(r % cfg.rates.length)
      val left = n - loop.position
      val count = math.min(math.round(rate * cfg.windowS).toInt, left / (cfg.rounds - r))
      rungs += loop.rung(rate, count, cfg.latencyLimitMs, graceMs = 2000)
    }
    val tracedParTimes = ArrayBuffer.empty[Double]
    if (cfg.trace) for (i <- 0 until math.max(1, cfg.rounds / 2))
      tracedParTimes += parPass(Some(s"par$i"))
    val microBatches = loop.microBatches
    loop.stop()
    mark("rounds")

    val abacusEps = n / Stats.median(abTimes)
    report.metric("abacus_eps", abacusEps, "1/s")
    val parEps = pEls / Stats.median(parTimes)
    report.metric("parabacus_eps", parEps, "1/s")
    report.attempted += microBatches - 1
    report.op(close(spa.estimate, ref(spa.processed.toInt - 1)),
      s"streaming estimate ${spa.estimate} after ${spa.processed} elements, ABACUS ${ref(spa.processed.toInt - 1)}")
    // Latency over every window of the ladder: a fixed offered-load profile,
    // so a rate the system cannot sustain raises the tail instead of leaving it.
    val allLat = rungs.flatMap(_.latenciesMs)
    val tail = Stats.tail(allLat)
    report.metric("latency_ms_p50", Stats.median(allLat), "ms")
    report.metric("latency_ms_tail", tail.value, "ms")
    // A rate is sustained when every window offered at it was.
    val byRate = cfg.rates.map(rate => rate -> rungs.filter(_.rate == rate)).filter(_._2.nonEmpty)
    byRate.foreach { case (rate, ws) =>
      val lat = ws.flatMap(_.latenciesMs)
      println(f"rate $rate%.0f el/s: ${ws.size} windows, ${ws.map(_.elements).sum} elements, " +
        f"${lat.size} micro-batches, latency p50 ${Stats.median(lat)}%.1f ms, max ${lat.max}%.1f ms, " +
        f"achieved ${Stats.median(ws.map(_.achievedEps))}%.0f el/s, " +
        f"generator late ${ws.map(_.generatorLateMs).max}%.2f ms, backlog max ${ws.map(_.backlogMax).max}, " +
        s"${if (ws.forall(_.passed)) "sustained" else "NOT sustained"}")
    }
    val sustained = byRate.filter(_._2.forall(_.passed)).lastOption
    if (sustained.isEmpty) report.warn(s"no rate of ${cfg.rates.mkString(",")} el/s was sustained")
    report.metric("sustained_eps", Stats.median(sustained.getOrElse(byRate.head)._2.map(_.achievedEps)), "1/s")
    report.details ++= Seq(
      "latency_tail_percentile" -> tail.percentile, "latency_samples" -> tail.samples,
      "latency_limit_ms" -> cfg.latencyLimitMs,
      "abacus_pass_s" -> abTimes, "parabacus_pass_s" -> parTimes, "parabacus_elements" -> pEls,
      "windows" -> rungs.map(r => Map("rate" -> r.rate, "elements" -> r.elements,
        "micro_batches" -> r.latenciesMs.size, "p50_ms" -> Stats.median(r.latenciesMs),
        "max_ms" -> r.latenciesMs.max, "achieved_eps" -> r.achievedEps,
        "generator_late_ms" -> r.generatorLateMs, "backlog_max" -> r.backlogMax, "sustained" -> r.passed)))

    if (cfg.trace) {
      report.metrics.clear() // a traced run reports the per-layer split only
      traced(cfg, report, spans, jobs, els, ref, samplerSeed, batches, parts.toSeq, rungs.toSeq,
        abacusEps, parEps, tracedParTimes.toSeq, pEls, probes, found, sparkS.toSeq, genS.toSeq, d)
    }

    mark("traced")
    spark.stop()
    mark("stop")
    reference
  }

  /** Heap retained by `state`: used heap after full GCs while it is still
    * reachable, minus the same after it is released. Called once the run's
    * other objects are unreachable, so only the estimator differs.
    */
  private def retainedBytes(state: AtomicReference[Abacus]): Double = {
    // Usage as each heap pool's collector left it, so allocations made
    // after the collection (by any thread) do not count.
    def usedAfterGc(): Double = {
      System.gc()
      ManagementFactory.getMemoryPoolMXBeans.asScala
        .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
        .map(_.getCollectionUsage.getUsed.toDouble).sum
    }
    // Threads of the stopped Spark session may still drop references for a
    // moment: collect until two readings agree.
    def settled(): Double = {
      var prev = usedAfterGc()
      var cur = usedAfterGc()
      var tries = 0
      while (math.abs(cur - prev) > 16384 && tries < 10) { prev = cur; cur = usedAfterGc(); tries += 1 }
      cur
    }
    val withState = settled()
    state.set(null)
    withState - settled()
  }

  /** Per-layer split of a traced run. */
  private def traced(cfg: Config, report: Report, spans: Spans, jobs: JobListener,
                     els: Array[StreamElement], ref: Array[Double], samplerSeed: Long,
                     batches: Seq[(Int, Int)], parts: Seq[(String, Seq[PartitionCount], Double)],
                     rungs: Seq[Rung], abacusEps: Double, parEps: Double,
                     tracedParTimes: Seq[Double], pEls: Int, probes: Long, found: Long,
                     sparkS: Seq[Double], genS: Seq[Double], d: repro.graph.LiteDataset): Unit = {
    val n = els.length
    val k = cfg.k
    def m(name: String, v: Double, unit: String): Unit = report.metric(name, v, unit)

    // ABACUS rebuilt from its public calls, each call timed. The split is
    // faithful only if it reproduces Abacus.estimate exactly.
    val sample = new AdjacencySample
    val rp = new RandomPairing(k, sample, new SplittableRandom(samplerSeed))
    val boundaries = batches.drop(1).map(_._1).toSet
    val s0 = ArrayBuffer.empty[Array[Edge]]
    var est = 0.0
    var rpNs, cntNs, dpNs, dpCalls, deltas, sProbes, sFound, sideNs = 0L
    var mismatches, oversize = 0
    var bRp, bCnt, bDp, bStart = 0L
    val t0 = System.nanoTime()
    bStart = t0
    var i = 0
    while (i < n) {
      if (boundaries.contains(i)) {
        val a = System.nanoTime(); s0 += sample.snapshotEdges(); sideNs += System.nanoTime() - a
      }
      val el = els(i)
      val c0 = System.nanoTime()
      val r = ButterflyCounter.countForEdge(sample, el.edge.left, el.edge.right)
      val c1 = System.nanoTime()
      bCnt += c1 - c0
      sProbes += r.work
      if (r.butterflies > 0) {
        val inc = DiscoveryProbability.increment(el.sign, rp.streamEdgeCount, rp.cb, rp.cg, k)
        val c2 = System.nanoTime()
        bDp += c2 - c1
        dpCalls += 1
        est += r.butterflies * inc
        sFound += r.butterflies
      }
      val r0 = System.nanoTime()
      deltas += rp.apply(el).length
      bRp += System.nanoTime() - r0
      if (est != ref(i)) mismatches += 1
      if (sample.size > k) oversize += 1
      if ((i + 1) % cfg.batch == 0 || i == n - 1) {
        val now = System.nanoTime()
        val id = spans.add("abacus.split.batch", bStart, now, attrs = Map("last" -> i))
        spans.add("core.ButterflyCounter.countForEdge", bStart, now, id, Map("self_ns" -> bCnt))
        spans.add("core.DiscoveryProbability.increment", bStart, now, id, Map("self_ns" -> bDp))
        spans.add("core.RandomPairing.apply", bStart, now, id, Map("self_ns" -> bRp))
        rpNs += bRp; cntNs += bCnt; dpNs += bDp
        bRp = 0; bCnt = 0; bDp = 0; bStart = now
      }
      i += 1
    }
    val splitNs = System.nanoTime() - t0 - sideNs
    report.op(mismatches == 0 && est == ref(n - 1),
      s"traced ABACUS split differs from Abacus.estimate at $mismatches elements")
    if (sProbes != probes || sFound != found)
      report.warn(s"traced split counted $sProbes probes / $sFound butterflies, Abacus $probes / $found")
    if (oversize > 0) report.warn(s"bound: |S| exceeded k=$k at $oversize elements (Theorem 6)")
    m("rp.ns_per_elem", rpNs.toDouble / n, "ns")
    m("rp.deltas_per_elem", deltas.toDouble / n, "ratio")
    m("rp.sample_edges", sample.size, "count")
    m("rp.pending_comp", (rp.cb + rp.cg).toDouble, "count")
    m("counter.probes", sProbes.toDouble, "count")
    m("counter.ns_per_probe", if (sProbes > 0) cntNs.toDouble / sProbes else 0.0, "ns")
    m("counter.hit_ratio", if (sProbes > 0) sFound.toDouble / sProbes else 0.0, "ratio")
    m("counter.share", cntNs.toDouble / splitNs, "ratio")
    m("dp.ns_per_call", if (dpCalls > 0) dpNs.toDouble / dpCalls else 0.0, "ns")

    // S_0 rebuild: what every PARABACUS task does first.
    val rebuildMs = s0.map { edges =>
      val a = new AdjacencySample
      val r0 = System.nanoTime()
      var j = 0
      while (j < edges.length) { a.add(edges(j)); j += 1 }
      val r1 = System.nanoTime()
      spans.add("core.AdjacencySample.add", r0, r1, attrs = Map("calls" -> edges.length))
      (r1 - r0) / 1e6
    }
    m("replay.rebuild_ms", if (rebuildMs.nonEmpty) Stats.median(rebuildMs) else 0.0, "ms")

    // PARABACUS driver, Spark scheduling and tasks, from the listener.
    val tagged = parts.map(_._1)
    val deadline = System.currentTimeMillis() + 10000
    def byTag = jobs.finishedAll.groupBy(_.tag)
    while (!tagged.forall(byTag.contains) && System.currentTimeMillis() < deadline) Thread.sleep(5)
    val jt = byTag
    val rows = parts.flatMap { case (tag, pcs, batchMs) => jt.get(tag).map(js => (js.head, pcs, batchMs)) }
    if (rows.size < parts.size) report.warn(s"listener saw ${rows.size} of ${parts.size} traced jobs")
    val batchMs = rows.map(_._3)
    val bt = Stats.tail(batchMs)
    m("parabacus.batch_ms_p50", Stats.median(batchMs), "ms")
    m("parabacus.batch_ms_tail", bt.value, "ms")
    report.details ++= Seq("batch_tail_percentile" -> bt.percentile, "batch_samples" -> bt.samples)
    m("parabacus.driver_ms", Stats.median(rows.map { case (j, _, b) => b - j.wallMs }), "ms")
    val bcast = rows.map(_._1.broadcastBytes.toDouble)
    m("parabacus.broadcast_bytes", Stats.median(bcast), "B")
    val perKM = bcast.map(_ / (k + cfg.batch))
    report.details("broadcast_bytes_per_k_plus_m") = Map("min" -> perKM.min, "median" -> Stats.median(perKM), "max" -> perKM.max)
    if (perKM.max > 1.5 * Stats.median(perKM))
      report.warn(f"bound: broadcast bytes / (k+M) ranges ${perKM.min}%.1f..${perKM.max}%.1f across batches (Theorem 7)")
    m("spark.jobs", rows.size.toDouble / tracedParTimes.size, "count")
    val tasks = rows.flatMap(_._1.tasks)
    // Spark's per-job cost: job wall time minus the slowest task's.
    def overheadMs(j: JobListener.Job): Double =
      (j.wallMs - (if (j.tasks.isEmpty) 0L else j.tasks.map(_.durationMs).max)).toDouble
    m("spark.job_overhead_ms", Stats.median(rows.map { case (j, _, _) => overheadMs(j) }), "ms")
    m("spark.scheduler_delay_ms", Stats.median(tasks.map(_.schedulerDelayMs.toDouble)), "ms")
    m("task.run_ms_sum", Stats.median(rows.map(_._1.tasks.map(_.runMs).sum.toDouble)), "ms")
    m("task.run_ms_max", Stats.median(rows.map(_._1.tasks.map(_.runMs).max.toDouble)), "ms")
    m("task.gc_ms", tasks.map(_.gcMs).sum.toDouble / tracedParTimes.size, "ms")
    val taskProbes = rows.map(_._2.map(_.work).sum).sum
    val taskRunMs = tasks.map(_.runMs).sum.toDouble
    m("task.ns_per_probe", if (taskProbes > 0) taskRunMs * 1e6 / taskProbes else 0.0, "ns")
    def skew(xs: Seq[Double]): Option[Double] = {
      val mean = xs.sum / xs.size
      if (mean > 0) Some(xs.max / mean) else None
    }
    val skews = rows.flatMap(r => skew(r._1.tasks.map(_.runMs.toDouble).toSeq))
    m("task.skew", if (skews.nonEmpty) Stats.median(skews) else 1.0, "ratio")
    val wskews = rows.flatMap(r => skew(r._2.map(_.work.toDouble)))
    m("task.work_skew", if (wskews.nonEmpty) Stats.median(wskews) else 1.0, "ratio")
    // Findings: how much of task time counting plus the rebuild explain,
    // and how much of PARABACUS wall time is Spark's per-job cost.
    val perProbeNs = if (sProbes > 0) cntNs.toDouble / sProbes else 0.0
    val rebuildPerTaskMs = if (rebuildMs.nonEmpty) Stats.median(rebuildMs) else 0.0
    m("task.explained_share", if (taskRunMs > 0)
      (taskProbes * perProbeNs / 1e6 + tasks.size * rebuildPerTaskMs) / taskRunMs else 0.0, "ratio")
    val jobOverhead = rows.map { case (j, _, _) => overheadMs(j) }.sum
    m("spark.overhead_share", jobOverhead / batchMs.sum, "ratio")
    rows.foreach { case (j, _, _) =>
      j.tasks.foreach(t => spans.add("spark.task", t.launchMs * 1000000L, t.finishMs * 1000000L,
        attrs = Map("clock" -> "epoch", "job" -> j.id, "index" -> t.index, "run_ms" -> t.runMs,
          "gc_ms" -> t.gcMs, "result_bytes" -> t.resultBytes)))
      spans.add("spark.job", j.startMs * 1000000L, j.endMs * 1000000L,
        attrs = Map("clock" -> "epoch", "job" -> j.id, "tag" -> j.tag, "broadcast_bytes" -> j.broadcastBytes))
    }

    // Structured Streaming, from the progress events of every rung.
    val progress = rungs.flatMap(_.progress)
    def dur(key: String) = Stats.median(progress.map(_.durationMs.getOrElse(key, 0L).toDouble))
    m("stream.microbatches", progress.size, "count")
    m("stream.rows_p50", Stats.median(progress.map(_.rows.toDouble)), "count")
    m("stream.trigger_ms", dur("triggerExecution"), "ms")
    m("stream.add_batch_ms", dur("addBatch"), "ms")
    m("stream.planning_ms", dur("queryPlanning"), "ms")
    m("stream.wal_ms", dur("walCommit"), "ms")
    m("stream.backlog_max", rungs.map(_.backlogMax).max.toDouble, "count")
    m("stream.generator_late_ms", rungs.map(_.generatorLateMs).max, "ms")
    progress.foreach { pr =>
      val trig = pr.durationMs.getOrElse("triggerExecution", 0L)
      spans.add("streaming.microbatch", pr.recvNs - trig * 1000000L, pr.recvNs,
        attrs = Map("batch" -> pr.batchId, "rows" -> pr.rows) ++ pr.durationMs)
    }

    m("setup.spark_s", Stats.median(sparkS), "s")
    m("setup.generate_s", Stats.median(genS), "s")

    // Tracing overhead: traced rates minus the untraced ones of this run.
    val splitEps = n / (splitNs / 1e9)
    m("trace.abacus_overhead_eps", splitEps - abacusEps, "1/s")
    m("trace.parabacus_overhead_eps", pEls / Stats.median(tracedParTimes) - parEps, "1/s")

    // Quality: relative error against the exact final count.
    val (exact, exactS) = {
      val t = System.nanoTime()
      val c = if (cfg.prefix > 0) {
        val ex = new ExactButterflyCounter
        ex.processAll(els.toSeq)
        ex.count
      } else d.exactFinalCount(cfg.alpha, cfg.seed)
      (c, (System.nanoTime() - t) / 1e9)
    }
    m("abacus.rel_error", if (exact > 0) math.abs(ref(n - 1) - exact) / exact else math.abs(ref(n - 1)), "ratio")
    report.details ++= Seq("exact_count" -> exact, "exact_s" -> exactS, "abacus_estimate" -> ref(n - 1))
  }
}
