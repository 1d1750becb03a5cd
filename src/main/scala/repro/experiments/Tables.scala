package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments._
import repro.graph.{DatasetStats, Datasets, LiteDataset}

/** The reproduced tables (Table II and Figs. 3–10 as tables), one entry
  * each: the table's parameters, the [[Experiments]] call that yields its
  * rows, and the layout it prints. The bench suites run an entry and check
  * the paper's shapes on its rows; `repro.jobs.TableJob` runs one by name.
  */
object Tables {

  /** One reproduced table whose experiment yields rows of type `R`. */
  sealed abstract class Table[R](val name: String, val title: String) {
    def header: Seq[String]

    /** The experiment. Only the tables that run PARABACUS evaluate `spark`. */
    protected def rows(spark: => SparkSession): Seq[R]

    protected def cells(rows: Seq[R]): Seq[Seq[String]]

    /** Run the experiment, print the table and return its rows. */
    final def run(spark: => SparkSession = sys.error(s"$name needs a SparkSession")): Seq[R] = {
      val rs = rows(spark)
      TablePrinter.print(title, header, cells(rs))
      rs
    }
  }

  /** Rows grouped per (dataset, k), datasets in [[Datasets.all]] order. */
  private def perDatasetAndK[R](rows: Seq[R])(key: R => (String, Int)): Seq[((String, Int), Seq[R])] =
    rows.groupBy(key).toSeq
      .sortBy { case ((d, k), _) => (Datasets.all.indexWhere(_.name == d), k) }

  object DatasetStatistics extends Table[DatasetStats]("table2",
      "Table 2 (paper Table II): dataset statistics") {
    val datasets: Seq[LiteDataset] = Datasets.all
    def header: Seq[String] = Seq("graph", "|E|", "|L|", "|R|", "|B|", "density",
      "paper |E|", "paper |B|", "paper density")
    protected def rows(spark: => SparkSession): Seq[DatasetStats] = datasets.map(Datasets.stats)
    protected def cells(rows: Seq[DatasetStats]): Seq[Seq[String]] =
      datasets.zip(rows).map { case (d, s) =>
        Seq(s.name, s.edges.toString, s.left.toString, s.right.toString,
          s.butterflies.toString, TablePrinter.sci(s.density),
          TablePrinter.sci(d.paper.edges), TablePrinter.sci(d.paper.butterflies),
          TablePrinter.sci(d.paper.density))
      }
  }

  /** Tables 3 and 5: mean relative error per (dataset, k), one column per
    * algorithm, over the sample-size ladder `d.sampleSizes`.
    */
  final class Accuracy(name: String, title: String, val alpha: Double)
      extends Table[AccuracyRow](name, title) {
    val datasets: Seq[LiteDataset] = Datasets.all
    val trials = 5
    def header: Seq[String] = Seq("dataset", "k") ++ Algorithms
    protected def rows(spark: => SparkSession): Seq[AccuracyRow] =
      datasets.flatMap(d => accuracy(d, d.sampleSizes, alpha, trials))
    protected def cells(rows: Seq[AccuracyRow]): Seq[Seq[String]] =
      perDatasetAndK(rows)(r => (r.dataset, r.k)).map { case ((d, k), rs) =>
        val byAlg = rs.map(r => r.algorithm -> r.relError).toMap
        Seq(d, k.toString) ++ Algorithms.map(a => TablePrinter.pct(byAlg(a)))
      }
  }

  val AccuracyDeletions = new Accuracy("table3",
    "Table 3 (paper Fig. 3): relative error, alpha=20%", alpha = 0.2)

  val AccuracyInsertOnly = new Accuracy("table5",
    "Table 5 (paper Fig. 5): relative error, alpha=0%", alpha = 0.0)

  object Throughput extends Table[ThroughputRow]("table4",
      "Table 4 (paper Fig. 4): throughput [edges/s], alpha=20%") {
    val datasets: Seq[LiteDataset] = Datasets.all
    val alpha = 0.2
    val miniBatch = 10000
    val partitions = 16
    private val algOrder = Seq("abacus", "abacus-ins-only", "fleet", "cas")
    def header: Seq[String] = Seq("dataset", "k", "abacus(ins+del)", "abacus(ins-only)",
      "fleet", "cas", "parabacus")
    protected def rows(spark: => SparkSession): Seq[ThroughputRow] =
      datasets.flatMap(d => throughputAll(spark, d, d.sampleSizes, alpha, miniBatch, partitions))
    protected def cells(rows: Seq[ThroughputRow]): Seq[Seq[String]] =
      perDatasetAndK(rows)(r => (r.dataset, r.k)).map { case ((d, k), rs) =>
        def of(alg: String) = rs.find(_.algorithm == alg).map(_.edgesPerSec).getOrElse(0.0)
        val pa = rs.find(_.algorithm.startsWith("parabacus")).map(_.edgesPerSec).getOrElse(0.0)
        Seq(d, k.toString) ++ algOrder.map(a => TablePrinter.sci(of(a))) :+
          TablePrinter.sci(pa)
      }
  }

  object DeletionImpact extends Table[DeletionImpactRow]("table6",
      "Table 6 (paper Fig. 6): ABACUS vs deletion ratio, k=|E|/50") {
    val datasets: Seq[LiteDataset] = Datasets.all
    val alphas: Seq[Double] = Seq(0.05, 0.10, 0.20, 0.30)
    val trials = 3
    // Paper: fixed 150K of 10M-327M edges; here the middle rung |E|/50.
    def k(d: LiteDataset): Int = d.m / 50
    def header: Seq[String] = Seq("dataset", "alpha", "rel-error", "throughput [edges/s]")
    protected def rows(spark: => SparkSession): Seq[DeletionImpactRow] =
      datasets.flatMap(d => deletionImpact(d, alphas, k(d), trials))
    protected def cells(rows: Seq[DeletionImpactRow]): Seq[Seq[String]] =
      rows.map(r => Seq(r.dataset, TablePrinter.pct(r.alpha),
        TablePrinter.pct(r.relError), TablePrinter.sci(r.edgesPerSec)))
  }

  object Scalability extends Table[ScalabilityRow]("table7",
      "Table 7 (paper Fig. 7): cumulative elapsed time [ms] per stream decile") {
    val datasets: Seq[LiteDataset] = Seq(Datasets.trackersLite, Datasets.orkutLite)
    val alpha = 0.2
    def header: Seq[String] = Seq("dataset", "k") ++ (1 to 10).map(dc => s"${dc * 10}%")
    protected def rows(spark: => SparkSession): Seq[ScalabilityRow] =
      datasets.flatMap(d => scalability(d, d.sampleSizes, alpha))
    protected def cells(rows: Seq[ScalabilityRow]): Seq[Seq[String]] =
      perDatasetAndK(rows)(r => (r.dataset, r.k)).map { case ((d, k), rs) =>
        Seq(d, k.toString) ++ rs.sortBy(_.fractionPct).map(r => TablePrinter.dbl(r.elapsedMs))
      }
  }

  /** Speedup per (dataset, k): sequential time, then one column per value
    * of the swept knob.
    */
  private def speedupCells(rows: Seq[SpeedupRow], swept: Seq[Int],
                           of: SpeedupRow => Int): Seq[Seq[String]] =
    perDatasetAndK(rows)(r => (r.dataset, r.k)).map { case ((d, k), rs) =>
      Seq(d, k.toString, TablePrinter.dbl(rs.head.seqMs)) ++
        swept.map(v => TablePrinter.dbl(rs.find(of(_) == v).get.speedup))
    }

  object SpeedupMinibatch extends Table[SpeedupRow]("table8",
      "Table 8 (paper Fig. 8): speedup vs mini-batch size, p=16") {
    val datasets: Seq[LiteDataset] = Datasets.all
    val alpha = 0.2
    val miniBatches: Seq[Int] = Seq(500, 2000, 10000)
    val partitions = 16
    def header: Seq[String] = Seq("dataset", "k", "seq [ms]") ++ miniBatches.map(m => s"M=$m")
    protected def rows(spark: => SparkSession): Seq[SpeedupRow] =
      datasets.flatMap(d =>
        speedup(spark, d, d.speedupSampleSizes, miniBatches, Seq(partitions), alpha))
    protected def cells(rows: Seq[SpeedupRow]): Seq[Seq[String]] =
      speedupCells(rows, miniBatches, _.miniBatch)
  }

  object SpeedupThreads extends Table[SpeedupRow]("table9",
      "Table 9 (paper Fig. 9): speedup vs partitions, M=10000") {
    val datasets: Seq[LiteDataset] = Datasets.all
    val alpha = 0.2
    val miniBatch = 10000
    val partitions: Seq[Int] = Seq(1, 2, 4, 8, 16)
    def header: Seq[String] = Seq("dataset", "k", "seq [ms]") ++ partitions.map(p => s"p=$p")
    protected def rows(spark: => SparkSession): Seq[SpeedupRow] =
      datasets.flatMap(d =>
        speedup(spark, d, d.speedupSampleSizes, Seq(miniBatch), partitions, alpha))
    protected def cells(rows: Seq[SpeedupRow]): Seq[Seq[String]] =
      speedupCells(rows, partitions, _.partitions)
  }

  object LoadBalance extends Table[LoadRow]("table10",
      "Table 10 (paper Fig. 10): set-intersection checks per partition, M=10000, p=16") {
    val datasets: Seq[LiteDataset] = Seq(Datasets.movielensLite, Datasets.orkutLite)
    val alpha = 0.2
    val miniBatch = 10000
    val partitions = 16
    // k = |E|/10 mirrors the paper's middle sample size choice (150K).
    def k(d: LiteDataset): Int = d.m / 10
    def header: Seq[String] = Seq("dataset", "partition", "checks", "edges")
    protected def rows(spark: => SparkSession): Seq[LoadRow] =
      datasets.flatMap(d => loadBalance(spark, d, k(d), miniBatch, partitions, alpha))
    protected def cells(rows: Seq[LoadRow]): Seq[Seq[String]] =
      rows.map(r => Seq(r.dataset, r.partition.toString, r.work.toString,
        r.edges.toString))
  }

  /** Every table, in paper order. */
  val all: Seq[Table[_]] = Seq(DatasetStatistics, AccuracyDeletions, Throughput,
    AccuracyInsertOnly, DeletionImpact, Scalability, SpeedupMinibatch,
    SpeedupThreads, LoadBalance)

  /** Tables by [[Table.name]] (`table2` … `table10`). */
  val byName: Map[String, Table[_]] = all.map(t => t.name -> t).toMap
}
