package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class RandomPairingSpec extends AnyFunSuite {

  private def fresh(k: Int, seed: Long = 1L): RandomPairing =
    new RandomPairing(k, new AdjacencySample, new SplittableRandom(seed))

  test("memory budget below 2 is rejected") {
    intercept[IllegalArgumentException](fresh(1))
  }

  test("first k insertions are all sampled") {
    val rp = fresh(5)
    (1 to 5).foreach(i => rp(StreamElement.insert(i.toLong, i.toLong)))
    assert(rp.sample.size === 5)
    assert(rp.streamEdgeCount === 5)
    (1 to 5).foreach(i => assert(rp.sample.contains(Edge(i.toLong, i.toLong))))
  }

  test("sample never exceeds the memory budget") {
    val rp = fresh(8)
    (1 to 500).foreach(i => rp(StreamElement.insert(i.toLong, 1L)))
    assert(rp.sample.size === 8)
    assert(rp.streamEdgeCount === 500)
  }

  test("deleting a sampled edge bumps cb and shrinks the sample") {
    val rp = fresh(10)
    (1 to 4).foreach(i => rp(StreamElement.insert(i.toLong, i.toLong)))
    rp(StreamElement.delete(2L, 2L)) // everything is sampled while |E| <= k
    assert(rp.cb === 1)
    assert(rp.cg === 0)
    assert(rp.sample.size === 3)
    assert(rp.streamEdgeCount === 3)
  }

  test("deleting an unsampled edge bumps cg and keeps the sample") {
    val rp = fresh(2, seed = 3L)
    (1 to 50).foreach(i => rp(StreamElement.insert(i.toLong, i.toLong)))
    val unsampled = (1 to 50).map(i => Edge(i.toLong, i.toLong))
      .find(e => !rp.sample.contains(e)).get
    val before = rp.sample.size
    rp(StreamElement(unsampled, isInsert = false))
    assert(rp.cg === 1)
    assert(rp.cb === 0)
    assert(rp.sample.size === before)
  }

  test("a bad deletion is compensated by the next insertion") {
    val rp = fresh(10)
    (1 to 4).foreach(i => rp(StreamElement.insert(i.toLong, i.toLong)))
    rp(StreamElement.delete(1L, 1L))
    // cb=1, cg=0 → the insertion enters the sample with probability 1.
    assert(rp(StreamElement.insert(9L, 9L)) === RandomPairing.Applied)
    assert(rp.cb === 0)
    assert(rp.sample.contains(Edge(9L, 9L)))
  }

  test("RP invariant |S| = min(k, |E|+cb+cg) − cb holds under random streams") {
    var replacements = 0
    (1 to 20).foreach { trial =>
      val rp = fresh(12, seed = trial.toLong)
      val stream = TestGraphs.randomStream(nL = 20, nR = 20, m = 150,
        alpha = 0.3, seed = trial.toLong * 31)
      stream.foreach { el =>
        val before = rp.sample.snapshotEdges().toSet
        val change = rp.apply(el)
        val after = rp.sample.snapshotEdges().toSet
        // Each case restates its change to S; `length` counts the edges
        // that entered or left S.
        change match {
          case RandomPairing.Unchanged =>
            assert(after === before, s"trial $trial: $el")
          case RandomPairing.Applied =>
            assert(after === (if (el.isInsert) before + el.edge else before - el.edge),
              s"trial $trial: $el")
          case RandomPairing.Replaced(v) =>
            assert(el.isInsert && v != el.edge, s"trial $trial: $el replaced $v")
            assert(after === before - v + el.edge, s"trial $trial: $el replaced $v")
            replacements += 1
        }
        assert(change.length === ((before diff after) union (after diff before)).size,
          s"trial $trial: $el $change")
        val expected = math.min(rp.k.toLong, rp.streamEdgeCount + rp.cb + rp.cg) - rp.cb
        assert(rp.sample.size.toLong === expected,
          s"trial $trial: |S|=${rp.sample.size} |E|=${rp.streamEdgeCount} cb=${rp.cb} cg=${rp.cg}")
      }
    }
    assert(replacements > 0)
  }

  test("sample only ever contains live stream edges") {
    (1 to 10).foreach { trial =>
      val rp = fresh(10, seed = trial.toLong)
      val live = scala.collection.mutable.Set.empty[Edge]
      TestGraphs.randomStream(15, 15, 120, 0.4, trial.toLong).foreach { el =>
        rp.apply(el)
        if (el.isInsert) live += el.edge else live -= el.edge
        rp.sample.snapshotEdges().foreach(e => assert(live(e), s"stale $e in sample"))
      }
    }
  }

  test("insert-only sampling is uniform (chi-square-ish tolerance)") {
    // k=5 over 20 edges: every edge should be sampled w.p. 1/4.
    val n = 20
    val k = 5
    val trials = 4000
    val counts = new Array[Int](n)
    (1 to trials).foreach { t =>
      val rp = fresh(k, seed = t.toLong)
      (0 until n).foreach(i => rp(StreamElement.insert(i.toLong, i.toLong)))
      rp.sample.snapshotEdges().foreach(e => counts(e.left.toInt) += 1)
    }
    val expected = trials.toDouble * k / n
    counts.foreach { c =>
      assert(math.abs(c - expected) < expected * 0.12,
        s"non-uniform sampling: ${counts.mkString(",")}")
    }
  }

  test("fully dynamic sampling stays uniform over surviving edges") {
    // Insert 20 edges, delete 6 fixed ones; sample must be uniform over the
    // 14 survivors.
    val deleted = Set(0L, 3L, 7L, 11L, 15L, 19L)
    val n = 20
    val k = 5
    val trials = 4000
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    (1 to trials).foreach { t =>
      val rp = fresh(k, seed = 1000L + t)
      (0 until n).foreach(i => rp(StreamElement.insert(i.toLong, i.toLong)))
      deleted.foreach(i => rp(StreamElement.delete(i, i)))
      (0 until 5).foreach(i => rp(StreamElement.insert(100L + i, 100L + i))) // compensate
      rp.sample.snapshotEdges().foreach(e => counts(e.left) += 1)
    }
    deleted.foreach(i => assert(counts(i) === 0, s"deleted edge $i sampled"))
    val survivors = (0 until n).map(_.toLong).filterNot(deleted) ++ (0 until 5).map(100L + _)
    // Uniformity: every survivor's inclusion frequency should sit near the
    // survivors' own mean (the mean itself depends on leftover counters).
    val mean = survivors.map(counts(_).toDouble).sum / survivors.size
    survivors.foreach { i =>
      assert(math.abs(counts(i) - mean) < mean * 0.15,
        s"non-uniform after deletions: edge $i count=${counts(i)} mean=$mean")
    }
  }

  test("deterministic in seed") {
    def run(seed: Long): Set[Edge] = {
      val rp = fresh(6, seed)
      TestGraphs.randomStream(10, 10, 80, 0.25, 5L).foreach(rp.apply)
      rp.sample.snapshotEdges().toSet
    }
    assert(run(42L) === run(42L))
  }
}
