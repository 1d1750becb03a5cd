package repro.experiments

/** Evaluation metrics and timing helpers (§VI-A "Evaluation Metrics"). */
object Metrics {

  /** Relative error |x − x̂| / x for a true count x > 0 (lower is better). */
  def relativeError(truth: Double, estimate: Double): Double = {
    require(truth > 0, s"relative error undefined for truth=$truth")
    math.abs(truth - estimate) / truth
  }

  /** Throughput in elements per second. */
  def throughput(elements: Long, nanos: Long): Double =
    elements.toDouble / (nanos.toDouble / 1e9)

  /** Time a computation; returns (result, elapsed nanos). */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  /** Minimum elapsed nanos over `n` evaluations of `f` — robust against a
    * GC pause or scheduler hiccup landing inside a single timed run.
    */
  def timedMinNanos(n: Int)(f: => Any): Long =
    (1 to n).map(_ => timed(f)._2).min

  /** Arithmetic mean. */
  def mean(xs: Seq[Double]): Double = xs.sum / xs.size
}

/** Fixed-width text table printer — every bench prints its reproduced table
  * through this so `bench_output.txt` diffs cleanly against EXPERIMENTS.md.
  */
object TablePrinter {
  def print(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val sb = new StringBuilder
    sb.append(s"\n=== $title ===\n")
    sb.append(fmt(header)).append('\n').append(sep).append('\n')
    rows.foreach(r => sb.append(fmt(r)).append('\n'))
    val s = sb.toString
    println(s)
    s
  }

  def pct(x: Double): String = f"${x * 100}%.2f%%"
  def dbl(x: Double): String = f"$x%.2f"
  def sci(x: Double): String = f"$x%.2e"
}
