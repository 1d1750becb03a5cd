package repro.core

import org.scalacheck.{Gen, Prop, Test}
import repro.{SparkSpec, TestGraphs}

class ParAbacusSpec extends SparkSpec {

  private def assertSameEstimate(a: Double, b: Double, clue: String): Unit =
    assert(a == b, s"$clue: abacus=$a parabacus=$b")

  test("partition ranges are contiguous, equal-sized and cover the batch") {
    for (m <- Seq(1, 7, 16, 100); p <- Seq(1, 3, 8, 16)) {
      val ranges = (0 until p).map(ParAbacus.range(_, p, m))
      assert(ranges.head._1 === 0)
      assert(ranges.last._2 === m)
      ranges.sliding(2).foreach {
        case Seq((_, hi), (lo2, _)) => assert(hi === lo2)
        case _                      =>
      }
      val sizes = ranges.map { case (lo, hi) => hi - lo }
      assert(sizes.max - sizes.min <= 1, s"m=$m p=$p sizes=$sizes")
    }
  }

  test("Theorem 5: ParAbacus equals Abacus on insert-only streams") {
    val stream = TestGraphs.completeStream(8, 8)
    for (batch <- Seq(1, 7, 64); p <- Seq(1, 4)) {
      val seq = new Abacus(k = 20, seed = 5L)
      seq.processAll(stream)
      val par = new ParAbacus(k = 20, seed = 5L, spark, p)
      par.processAll(stream, batch)
      assertSameEstimate(seq.estimate, par.estimate, s"batch=$batch p=$p")
    }
  }

  test("Theorem 5: ParAbacus equals Abacus on fully dynamic streams") {
    for (trial <- 1 to 5; batch <- Seq(13, 50); p <- Seq(2, 4)) {
      val stream = TestGraphs.randomStream(15, 15, 200, 0.3, trial.toLong)
      val seq = new Abacus(k = 25, seed = trial.toLong)
      seq.processAll(stream)
      val par = new ParAbacus(k = 25, seed = trial.toLong, spark, p)
      par.processAll(stream, batch)
      assertSameEstimate(seq.estimate, par.estimate, s"trial=$trial batch=$batch p=$p")
    }
  }

  test("Theorem 5 bit for bit after every batch, M in {1, 7, 50}, p in {1, 3, 8}") {
    // (nL, nR, edges, α, seed) of a random fully dynamic stream.
    val streams = for {
      nL <- Gen.choose(4, 12)
      nR <- Gen.choose(4, 12)
      m <- Gen.choose(20, 90)
      alphaTenths <- Gen.choose(1, 5)
      seed <- Gen.choose(1L, 100000L)
    } yield (nL, nR, math.min(m, nL * nR), alphaTenths / 10.0, seed)
    // Random Pairing's two non-trivial paths, seen on the ABACUS side: an
    // insert that evicts a victim, and an insert that pays off a deletion.
    var replaced, compensated = 0
    def state(a: Abacus) = (java.lang.Double.doubleToLongBits(a.estimate), a.totalWork,
      a.totalFound, a.processed, (a.rp.streamEdgeCount, a.rp.cb, a.rp.cg))
    def firstMismatch(stream: Seq[StreamElement], k: Int, seed: Long, m: Int, p: Int) = {
      val seq = new Abacus(k, seed)
      val par = new ParAbacus(k, seed, spark, p)
      stream.grouped(m).zipWithIndex.map { case (batch, j) =>
        batch.foreach { el =>
          val pending = seq.rp.cb + seq.rp.cg
          val full = seq.sampleSize == k
          seq.process(el)
          if (el.isInsert && pending > 0) compensated += 1
          if (el.isInsert && pending == 0 && full && seq.isSampled(el.edge)) replaced += 1
        }
        par.processBatch(batch.toIndexedSeq)
        (j, state(seq), state(par))
      }.find { case (_, a, b) => a != b }
    }
    for (m <- Seq(1, 7, 50); p <- Seq(1, 3, 8)) {
      val prop = Prop.forAllNoShrink(streams, Gen.choose(2, 8), Gen.choose(1L, 1000L)) {
        case ((nL, nR, edges, alpha, streamSeed), k, seed) =>
          val stream = TestGraphs.randomStream(nL, nR, edges, alpha, streamSeed)
          val bad = firstMismatch(stream, k, seed, m, p)
          Prop(bad.isEmpty) :| s"randomStream($nL, $nR, $edges, $alpha, $streamSeed), " +
            s"k=$k seed=$seed: (batch, abacus, parabacus) = $bad"
      }
      val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(4)
        .withInitialSeed(10L * m + p), prop)
      val clue = res.status match {
        case Test.Failed(_, labels) => labels.mkString("; ")
        case other                  => other.toString
      }
      assert(res.passed, s"M=$m p=$p: $clue")
    }
    assert(replaced > 0 && compensated > 0, s"replaced=$replaced compensated=$compensated")
  }

  test("ParAbacus is exact with a big budget like Abacus") {
    val stream = TestGraphs.randomStream(10, 10, 80, 0.25, 3L)
    val exact = new ExactButterflyCounter
    exact.processAll(stream)
    val par = new ParAbacus(k = 10000, seed = 1L, spark, numPartitions = 4)
    par.processAll(stream, 17)
    assert(math.abs(par.estimate - exact.count) < 1e-6)
  }

  test("batch boundaries do not change the estimate") {
    val stream = TestGraphs.randomStream(15, 15, 150, 0.2, 8L)
    val ests = Seq(10, 37, 150, 500).map { batch =>
      val par = new ParAbacus(k = 15, seed = 9L, spark, numPartitions = 3)
      par.processAll(stream, batch)
      par.estimate
    }
    ests.sliding(2).foreach { case Seq(a, b) => assertSameEstimate(a, b, "batch split") }
  }

  test("empty batch is a no-op") {
    val par = new ParAbacus(k = 10, seed = 1L, spark, numPartitions = 2)
    assert(par.processBatch(IndexedSeq.empty) === Nil)
    assert(par.estimate === 0.0)
    assert(par.processed === 0L)
  }

  test("batches smaller than the partition count still work") {
    val par = new ParAbacus(k = 10, seed = 1L, spark, numPartitions = 8)
    val res = par.processBatch(IndexedSeq(StreamElement.insert(1L, 1L),
      StreamElement.insert(2L, 2L)))
    assert(res.size === 8)
    assert(res.map(_.edges).sum === 2)
  }

  test("per-partition bookkeeping sums to the whole stream") {
    val stream = TestGraphs.randomStream(15, 15, 150, 0.2, 11L)
    val par = new ParAbacus(k = 30, seed = 2L, spark, numPartitions = 4)
    val parts = stream.grouped(25).flatMap(g => par.processBatch(g.toIndexedSeq)).toSeq
    assert(par.processed === stream.size.toLong)
    assert(parts.map(_.edges).sum === stream.size)
    // Work must match what Abacus spends on the same configuration.
    val seq = new Abacus(k = 30, seed = 2L)
    seq.processAll(stream)
    assert(parts.map(_.work).sum === seq.totalWork)
  }

  test("sample state after a batch matches Abacus's (consolidation)") {
    val stream = TestGraphs.randomStream(15, 15, 150, 0.25, 21L)
    val seq = new Abacus(k = 12, seed = 7L)
    val par = new ParAbacus(k = 12, seed = 7L, spark, numPartitions = 2)
    stream.grouped(40).zipWithIndex.foreach { case (batch, j) =>
      seq.processAll(batch)
      par.processBatch(batch)
      assertSameEstimate(seq.estimate, par.estimate, s"batch $j")
      assert((par.totalWork, par.totalFound) === ((seq.totalWork, seq.totalFound)), s"batch $j")
      assert((par.rp.streamEdgeCount, par.rp.cb, par.rp.cg) ===
        ((seq.rp.streamEdgeCount, seq.rp.cb, seq.rp.cg)), s"batch $j")
      assert(par.rp.sample.snapshotEdges().toSet === seq.rp.sample.snapshotEdges().toSet,
        s"batch $j")
      assert(par.processed === seq.processed, s"batch $j")
    }
    assert(par.sampleSize === seq.sampleSize)
  }
}
