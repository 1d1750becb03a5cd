package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("relative error of a perfect estimate is zero") {
    assert(Metrics.relativeError(100.0, 100.0) === 0.0)
  }

  test("relative error is symmetric around the truth") {
    assert(Metrics.relativeError(100.0, 120.0) === 0.2)
    assert(Metrics.relativeError(100.0, 80.0) === 0.2)
  }

  test("relative error rejects non-positive truth") {
    intercept[IllegalArgumentException](Metrics.relativeError(0.0, 5.0))
  }

  test("throughput converts nanos to per-second rates") {
    assert(Metrics.throughput(1000L, 1_000_000_000L) === 1000.0)
    assert(Metrics.throughput(500L, 500_000_000L) === 1000.0)
  }

  test("timed returns the result and a plausible duration") {
    val (x, ns) = Metrics.timed { Thread.sleep(5); 42 }
    assert(x === 42)
    assert(ns >= 5_000_000L)
  }

  test("mean of constants is the constant") {
    assert(Metrics.mean(Seq(3.0, 3.0, 3.0)) === 3.0)
  }

  test("table printer renders aligned rows and returns the text") {
    val s = TablePrinter.print("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("=== t ==="))
    assert(s.contains("| 1  | 2  |"))
    assert(s.contains("| 33 | 4  |"))
  }

  test("formatting helpers") {
    assert(TablePrinter.pct(0.1234) === "12.34%")
    assert(TablePrinter.dbl(1.567) === "1.57")
    assert(TablePrinter.sci(12345.0) === "1.23e+04")
  }
}
