package repro.streaming

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.{SparkSpec, TestGraphs}
import repro.core.{Abacus, ParAbacus}

class StructuredParAbacusSpec extends SparkSpec {

  private def rows(stream: Seq[repro.core.StreamElement]) =
    stream.zipWithIndex.map { case (el, i) =>
      (i.toLong, el.edge.left, el.edge.right, el.isInsert)
    }

  test("toElements restores arrival order from the seq column") {
    import spark.implicits._
    val stream = TestGraphs.randomStream(10, 10, 40, 0.2, 1L)
    val df = rows(stream).reverse.toDF("seq", "l", "r", "ins")
    assert(StructuredParAbacus.toElements(df) === stream.toIndexedSeq.take(df.count().toInt))
  }

  test("MemoryStream-fed ParAbacus matches offline Abacus") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val stream = TestGraphs.randomStream(15, 15, 200, 0.25, 2L)
    val seq = new Abacus(k = 25, seed = 3L)
    seq.processAll(stream)

    val pa = new ParAbacus(k = 25, seed = 3L, spark, numPartitions = 2)
    val source = MemoryStream[(Long, Long, Long, Boolean)]
    val df = source.toDF().toDF("seq", "l", "r", "ins")
    val query = StructuredParAbacus.start(df, pa)
    try {
      // Feed in several micro-batches, preserving global order.
      rows(stream).grouped(50).foreach { g =>
        source.addData(g)
        query.processAllAvailable()
      }
    } finally query.stop()

    assert(pa.processed === stream.size.toLong)
    assert(pa.estimate == seq.estimate, s"streaming=${pa.estimate} offline=${seq.estimate}")
  }

  test("empty micro-batches are tolerated") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val pa = new ParAbacus(k = 10, seed = 1L, spark, numPartitions = 2)
    val source = MemoryStream[(Long, Long, Long, Boolean)]
    val df = source.toDF().toDF("seq", "l", "r", "ins")
    val query = StructuredParAbacus.start(df, pa)
    try {
      query.processAllAvailable() // no data at all
      source.addData(Seq((0L, 1L, 1L, true)))
      query.processAllAvailable()
    } finally query.stop()
    assert(pa.processed === 1L)
  }
}
