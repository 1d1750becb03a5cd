package repro.experiments

import repro.SparkSpec
import repro.graph.{LiteDataset, PaperStats}

/** Smoke tests of every experiment harness at miniature scale — the real
  * scales run in the bench suites.
  */
class ExperimentsSpec extends SparkSpec {

  private val tiny = Seq(
    LiteDataset("tiny-a", 60, 40, 600, 0.8, 0.8, 1L, PaperStats(1, 1, 1, 1, 1)),
    LiteDataset("tiny-b", 80, 50, 800, 0.6, 0.6, 2L, PaperStats(1, 1, 1, 1, 1)))

  test("accuracy harness produces a row per (dataset, k, algorithm)") {
    val rows = tiny.flatMap(Experiments.accuracy(_, ks = Seq(30, 60), alpha = 0.2, trials = 2))
    assert(rows.size === tiny.size * 2 * Experiments.Algorithms.size)
    rows.foreach { r =>
      assert(r.relError >= 0.0)
      assert(Experiments.Algorithms.contains(r.algorithm))
    }
  }

  test("accuracy harness supports insert-only streams") {
    val rows = Experiments.accuracy(tiny.head, ks = Seq(40), alpha = 0.0, trials = 2)
    assert(rows.size === Experiments.Algorithms.size)
  }

  test("abacus beats the deletion-blind baselines on a deletion-heavy tiny stream") {
    val rows = Experiments.accuracy(tiny.head, ks = Seq(120), alpha = 0.3, trials = 3)
    val byAlg = rows.map(r => r.algorithm -> r.relError).toMap
    assert(byAlg("abacus") < byAlg("fleet"), s"fleet not worse: $byAlg")
    assert(byAlg("abacus") < byAlg("cas"), s"cas not worse: $byAlg")
  }

  test("throughput harness yields positive rates for every algorithm") {
    val rows = Experiments.throughputAll(spark, tiny.head, ks = Seq(30),
      alpha = 0.2, miniBatch = 100, partitions = 2)
    assert(rows.size === 5) // abacus, fleet, cas, ins-only, parabacus
    rows.foreach(r => assert(r.edgesPerSec > 0, r.toString))
  }

  test("deletion-impact harness sweeps alphas") {
    val rows = Experiments.deletionImpact(tiny.head, alphas = Seq(0.1, 0.2),
      k = 40, trials = 2)
    assert(rows.map(_.alpha) === Seq(0.1, 0.2))
    rows.foreach { r => assert(r.relError >= 0 && r.edgesPerSec > 0) }
  }

  test("scalability harness reports cumulative deciles") {
    val rows = Experiments.scalability(tiny.head, ks = Seq(30), alpha = 0.2)
    assert(rows.map(_.fractionPct) === (1 to 10).map(_ * 10))
    rows.sliding(2).foreach { case Seq(a, b) =>
      assert(a.elapsedMs <= b.elapsedMs, "cumulative time must not decrease")
    }
  }

  test("speedup harness compares sequential and parallel runtimes") {
    val rows = Experiments.speedup(spark, tiny.head, ks = Seq(60),
      miniBatches = Seq(200), partitionCounts = Seq(2), alpha = 0.2)
    assert(rows.size === 1)
    assert(rows.head.seqMs > 0 && rows.head.parMs > 0)
    assert(rows.head.speedup > 0)
  }

  test("load-balance harness accounts every element to a partition") {
    val rows = Experiments.loadBalance(spark, tiny.head, k = 60,
      miniBatch = 100, partitions = 3, alpha = 0.2)
    assert(rows.size === 3)
    assert(rows.map(_.edges).sum === tiny.head.stream(0.2).size.toLong)
  }

  test("runAlgorithm rejects unknown names") {
    intercept[RuntimeException](
      Experiments.runAlgorithm("nope", 10, 1L, Nil))
  }
}
