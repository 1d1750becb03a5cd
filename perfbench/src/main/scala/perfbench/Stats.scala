package perfbench

/** Order statistics used by every metric of the benchmark. */
object Stats {

  /** Median of a non-empty sample. */
  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile `q` in [0, 1] of a non-empty sample. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "quantile of an empty sample")
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** Tail of a latency sample: the highest whole percentile that still has
    * at least `beyond` samples above it, as (value, percentile, samples).
    * With `beyond` or fewer samples there is no such percentile, and the
    * maximum is returned with percentile 100.
    */
  final case class Tail(value: Double, percentile: Int, samples: Int)

  def tail(xs: Iterable[Double], beyond: Int = 10): Tail = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "tail of an empty sample")
    val n = s.length
    if (n <= beyond) Tail(s(n - 1), 100, n)
    else Tail(s(n - 1 - beyond), math.floor(100.0 * (n - beyond) / n).toInt, n)
  }
}

/** Minimal JSON writer for the result line and the span file; the JVM side
  * carries no JSON library of its own.
  */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else java.lang.Double.toString(x)

  def value(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => num(d)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${str(k.toString)}:${value(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(value).mkString("[", ",", "]")
    case other => str(other.toString)
  }
}
