package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.scheduler._
import org.apache.spark.sql.streaming.StreamingQueryListener
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** In-memory span log. A span is one timed call into a layer (or an
  * aggregate of per-element calls over one batch); spans are written out
  * once, when the run ends, so recording never touches the disk.
  */
final class Spans {
  import Spans.Span

  private val spans = ArrayBuffer.empty[Span]

  /** Record a finished span and return its id (0 is "no parent"). */
  def add(name: String, startNs: Long, endNs: Long, parent: Int = 0,
          attrs: Map[String, Any] = Map.empty): Int = synchronized {
    val id = spans.length + 1
    spans += Span(id, parent, name, startNs, endNs, attrs)
    id
  }

  /** Write one JSON object per span. */
  def writeTo(file: File): Unit = synchronized {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      w.println(Json.value(Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs) ++ s.attrs))
    } finally w.close()
  }
}

object Spans {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                        attrs: Map[String, Any])
}

/** Spark scheduler listener: job, task and broadcast-block timings of the
  * jobs whose local property [[JobListener.Tag]] is set. Everything is kept
  * in memory and read after the listener bus has caught up.
  */
final class JobListener extends SparkListener {
  import JobListener._

  private val jobs = scala.collection.mutable.LinkedHashMap.empty[Int, Job]
  private val stageToJob = scala.collection.mutable.HashMap.empty[Int, Int]
  private var pendingBroadcast = 0L

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    // TorrentBroadcast stores a value as serialized "pieces" before the job
    // that reads it is submitted; their sizes are the bytes broadcast.
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece") &&
        info.storageLevel.isValid)
      pendingBroadcast += info.memSize + info.diskSize
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(Tag)))
    tag.foreach { t =>
      jobs(e.jobId) = Job(e.jobId, t, e.time, -1L, pendingBroadcast, ArrayBuffer.empty)
      e.stageIds.foreach(stageToJob(_) = e.jobId)
    }
    pendingBroadcast = 0L
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (jobId <- stageToJob.get(e.stageId); job <- jobs.get(jobId) if e.taskMetrics != null) {
      val i = e.taskInfo
      val m = e.taskMetrics
      job.tasks += Task(i.index, i.launchTime, i.finishTime, m.executorRunTime,
        m.executorDeserializeTime, m.resultSerializationTime, i.gettingResultTime,
        m.jvmGCTime, m.resultSize)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { j => jobs(e.jobId) = j.copy(endMs = e.time) }
  }

  /** Finished traced jobs, in submission order. */
  def finishedAll: Seq[Job] = synchronized(jobs.values.filter(_.endMs >= 0).toSeq)
}

object JobListener {
  /** Local property naming the batch a traced job belongs to. */
  val Tag = "perfbench.tag"

  final case class Task(index: Int, launchMs: Long, finishMs: Long, runMs: Long,
                        deserializeMs: Long, serializeMs: Long, gettingResultMs: Long,
                        gcMs: Long, resultBytes: Long) {
    def durationMs: Long = finishMs - launchMs
    /** Spark UI's definition: task time not spent running, (de)serialising
      * or fetching the result.
      */
    def schedulerDelayMs: Long =
      math.max(0L, durationMs - runMs - deserializeMs - serializeMs -
        (if (gettingResultMs > 0) finishMs - gettingResultMs else 0L))
  }

  final case class Job(id: Int, tag: String, startMs: Long, endMs: Long,
                       broadcastBytes: Long, tasks: ArrayBuffer[Task]) {
    def wallMs: Long = endMs - startMs
  }
}

/** Structured Streaming listener: one record per non-empty micro-batch,
  * stamped when the progress event reaches the listener.
  */
final class ProgressListener extends StreamingQueryListener {
  import StreamingQueryListener._
  import ProgressListener.Progress

  private val events = ArrayBuffer.empty[Progress]
  @volatile private var rowsSeen = 0L

  override def onQueryStarted(e: QueryStartedEvent): Unit = ()
  override def onQueryTerminated(e: QueryTerminatedEvent): Unit = ()

  override def onQueryProgress(e: QueryProgressEvent): Unit = {
    val now = System.nanoTime()
    val p = e.progress
    if (p.numInputRows > 0) synchronized {
      events += Progress(now, p.batchId, p.numInputRows,
        p.durationMs.asScala.map { case (k, v) => k -> v.longValue }.toMap)
      rowsSeen += p.numInputRows
    }
  }

  /** Rows of all micro-batches reported so far. */
  def rows: Long = rowsSeen

  def snapshot: Vector[Progress] = synchronized(events.toVector)
}

object ProgressListener {
  final case class Progress(recvNs: Long, batchId: Long, rows: Long, durationMs: Map[String, Long])
}
