package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Tables

/** spark-submit entry point for the reproduced tables: runs the table named
  * by the first argument (`table2` … `table10`; DESIGN.md maps each to its
  * paper source) and prints it as its bench suite does, without the bench's
  * shape checks.
  *
  * Run: `sbt "runMain repro.jobs.TableJob table3"`
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val table = args.headOption.flatMap(Tables.byName.get).getOrElse {
      System.err.println(s"usage: TableJob <${Tables.all.map(_.name).mkString("|")}>")
      sys.exit(2)
    }
    // Only the tables that run PARABACUS start a session, configured as the
    // tests configure theirs.
    lazy val spark = {
      val s = SparkSession.builder()
        .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
        .appName(table.name)
        .config("spark.ui.enabled", false)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
      s.sparkContext.setLogLevel("WARN")
      s
    }
    try table.run(spark)
    finally SparkSession.getDefaultSession.foreach(_.stop())
  }
}
