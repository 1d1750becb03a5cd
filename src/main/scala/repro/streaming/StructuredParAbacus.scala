package repro.streaming

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}
import repro.core.{Edge, ParAbacus, StreamElement}

/** Structured Streaming ingestion for PARABACUS.
  *
  * Each micro-batch of the source becomes one PARABACUS mini-batch: the
  * `foreachBatch` sink re-establishes arrival order by `seq`, converts the
  * rows to [[StreamElement]]s and hands them to [[ParAbacus.processBatch]],
  * which fans the per-edge counting back out over the cluster.
  *
  * Expected input schema: `seq BIGINT, l BIGINT, r BIGINT, ins BOOLEAN` —
  * `seq` is the element's position in the stream Π (micro-batch sources do
  * not guarantee intra-batch order on their own).
  */
object StructuredParAbacus {

  /** Convert one micro-batch DataFrame to ordered stream elements. */
  def toElements(df: DataFrame): IndexedSeq[StreamElement] =
    df.select("seq", "l", "r", "ins")
      .collect()
      .sortBy(_.getLong(0))
      .map { row: Row =>
        StreamElement(Edge(row.getLong(1), row.getLong(2)), row.getBoolean(3))
      }
      .toIndexedSeq

  /** Wire a streaming DataFrame into `pa` via `foreachBatch` and start the
    * query (caller owns its lifecycle).
    */
  def start(stream: DataFrame, pa: ParAbacus): StreamingQuery =
    stream.writeStream
      .outputMode("append")
      .trigger(Trigger.ProcessingTime(0L))
      .foreachBatch { (df: DataFrame, _: Long) =>
        pa.processBatch(toElements(df))
        ()
      }
      .start()
}
