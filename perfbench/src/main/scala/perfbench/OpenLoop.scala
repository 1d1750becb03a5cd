package perfbench

import java.util.concurrent.locks.LockSupport
import org.apache.spark.sql.{SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.core.{ParAbacus, StreamElement}
import repro.streaming.StructuredParAbacus
import scala.collection.immutable.ArraySeq
import OpenLoop.TickNs

/** Result of one rung of the offered-rate ladder. */
final case class Rung(rate: Double, elements: Int, latenciesMs: Vector[Double],
                      achievedEps: Double, generatorLateMs: Double,
                      backlogMax: Long, passed: Boolean, progress: Vector[ProgressListener.Progress])

object OpenLoop {
  /** The generator adds due elements at most this often: each `addData`
    * becomes its own block in the source, and a micro-batch's planning
    * cost grows with the number of blocks it reads.
    */
  val TickNs = 10000000L
}

/** Open-loop feed of a stream into [[StructuredParAbacus]].
  *
  * One generator thread adds the elements to a `MemoryStream` on a fixed
  * schedule: element i of a rung is due at `start + i / rate`, whatever the
  * query is doing, so a stall delays every element behind it and shows up
  * as latency. A micro-batch's latency runs from the due time of its last
  * element to the moment its progress event (sent after the estimate was
  * updated and the batch committed) reaches the listener.
  */
final class OpenLoop(spark: SparkSession, pa: ParAbacus, els: Array[StreamElement]) {
  private val rows: Array[(Long, Long, Long, Boolean)] =
    Array.tabulate(els.length)(i => (i.toLong, els(i).edge.left, els(i).edge.right, els(i).isInsert))
  private val due = new Array[Long](els.length)
  private val listener = new ProgressListener
  spark.streams.addListener(listener)

  private val source = {
    import spark.implicits._
    implicit val sqlCtx: SQLContext = spark.sqlContext
    MemoryStream[(Long, Long, Long, Boolean)]
  }
  private val query: StreamingQuery =
    StructuredParAbacus.start(source.toDF().toDF("seq", "l", "r", "ins"), pa)
  @volatile private var offered = 0

  /** Elements handed to the source so far. */
  def position: Int = offered

  private def add(lo: Int, hi: Int): Unit = {
    source.addData(ArraySeq.unsafeWrapArray(rows).slice(lo, hi))
    offered = hi
  }

  /** Micro-batches reported so far. */
  def microBatches: Int = listener.snapshot.length

  /** Process everything offered and wait until its progress is reported. */
  private def drain(): Unit = {
    query.processAllAvailable()
    val deadline = System.nanoTime() + 10000000000L
    while (listener.rows < offered && System.nanoTime() < deadline) Thread.sleep(2)
    query.exception.foreach(e => throw e)
  }

  /** Feed `n` elements at once and wait until they are processed (untimed). */
  def warmUp(n: Int): Unit = {
    add(offered, math.min(els.length, offered + n))
    drain()
  }

  /** Offer the next `count` elements at `rate` elements/s, then wait for
    * the backlog to drain. A rung is sustained if it drains within
    * `limitMs` (plus `graceMs` of slack) of its last due time and every
    * micro-batch's latency stays within `limitMs`: a rung has too few
    * micro-batches for a percentile with ten samples beyond it.
    */
  def rung(rate: Double, count: Int, limitMs: Double, graceMs: Double): Rung = {
    val lo = offered
    val hi = math.min(els.length, lo + count)
    require(hi > lo, s"stream exhausted before a rung at $rate el/s")
    val before = microBatches
    val rowsBefore = listener.rows
    val start = System.nanoTime() + 20000000L
    var i = lo
    while (i < hi) { due(i) = start + ((i - lo) * 1e9 / rate).toLong; i += 1 }

    @volatile var lateMaxNs = 0L
    val gen = new Thread(() => {
      var next = lo
      var lastAdd = 0L
      while (next < hi) {
        val now = System.nanoTime()
        var upTo = next
        while (upTo < hi && due(upTo) <= now) upTo += 1
        if (upTo > next && now - lastAdd >= TickNs) {
          lastAdd = now
          lateMaxNs = math.max(lateMaxNs, now - due(next))
          add(next, upTo)
          next = upTo
        } else LockSupport.parkNanos(math.max(due(next), lastAdd + TickNs) - now)
      }
    }, "perfbench-generator")
    gen.setDaemon(true)
    gen.start()
    gen.join()
    val deadline = due(hi - 1) + ((limitMs + graceMs) * 1e6).toLong
    while (listener.rows - rowsBefore < hi - lo && System.nanoTime() < deadline)
      Thread.sleep(2)
    // A rung that has not drained by the deadline failed; its remaining
    // micro-batches still count, with the latency they really had.
    val inTime = listener.rows - rowsBefore >= hi - lo
    drain()

    val progress = listener.snapshot.drop(before)
    var cum = rowsBefore
    var backlogMax = 0L
    val lat = progress.map { p =>
      cum += p.rows
      val last = (cum - 1).toInt
      val offeredThen = lo + math.min(hi - lo,
        math.max(0L, ((p.recvNs - start) * rate / 1e9).toLong + 1).toInt)
      backlogMax = math.max(backlogMax, offeredThen - cum)
      (p.recvNs - due(last)) / 1e6
    }
    val achieved = (hi - lo) * 1e9 / (progress.last.recvNs - start)
    val passed = inTime && lat.max <= limitMs
    Rung(rate, hi - lo, lat, achieved, lateMaxNs / 1e6, backlogMax, passed, progress)
  }

  def stop(): Unit = {
    query.stop()
    spark.streams.removeListener(listener)
  }
}
