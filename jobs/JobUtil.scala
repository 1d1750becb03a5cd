package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared bootstrap for the spark-submit entry point. */
object JobUtil {
  /** Local SparkSession mirroring the test configuration. */
  def session(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.ui.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
