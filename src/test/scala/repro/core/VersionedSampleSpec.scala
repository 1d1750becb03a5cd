package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs.ids

class VersionedSampleSpec extends AnyFunSuite {

  /** A snapshot whose log inserts `base` (S_0), then holds `changes`, each
    * visible from its version on (versions in order, 1..m).
    */
  private def snapOf(base: Seq[Edge], changes: Seq[(Int, Boolean, Edge)],
                     m: Int): VersionedSampleSnapshot = {
    val log = base.map(e => (0, true, e)) ++ changes
    VersionedSampleSnapshot(
      Array.tabulate(m + 1)(v => log.count(_._1 <= v)), log.map(_._2).toArray,
      log.map(_._3.left).toArray, log.map(_._3.right).toArray,
      new Array[Long](m), new Array[Long](m))
  }

  test("replayer at version 0 exposes exactly the base sample") {
    val snap = snapOf(Seq(Edge(1L, 1L), Edge(2L, 2L)),
      Seq((1, true, Edge(3L, 3L))), m = 2)
    val r = new SampleReplayer(snap)
    r.advanceTo(0)
    assert(ids(r.leftNeighbors(1L)) === Set(1L))
    assert(r.leftNeighbors(3L).isEmpty)
  }

  test("deltas become visible exactly at their version") {
    val snap = snapOf(Seq(Edge(1L, 1L)),
      Seq((1, true, Edge(2L, 2L)), (3, false, Edge(1L, 1L))), m = 3)
    val r = new SampleReplayer(snap)
    r.advanceTo(0)
    assert(r.leftNeighbors(2L).isEmpty)
    r.advanceTo(1)
    assert(ids(r.leftNeighbors(2L)) === Set(2L))
    assert(ids(r.leftNeighbors(1L)) === Set(1L))
    r.advanceTo(2)
    assert(ids(r.leftNeighbors(1L)) === Set(1L)) // removal not yet visible
    r.advanceTo(3)
    assert(r.leftNeighbors(1L).isEmpty)
  }

  test("advancing multiple versions at once applies all pending deltas") {
    val snap = snapOf(Nil,
      Seq((1, true, Edge(1L, 1L)), (2, true, Edge(2L, 2L)), (3, true, Edge(3L, 3L))),
      m = 3)
    val r = new SampleReplayer(snap)
    r.advanceTo(3)
    assert(Seq(1L, 2L, 3L).forall(i => ids(r.leftNeighbors(i)) === Set(i)))
  }

  test("replayed versions equal sequentially materialised samples on random streams") {
    (1 to 10).foreach { trial =>
      val rng = new java.util.SplittableRandom(trial.toLong)
      val stream = repro.TestGraphs.randomStream(12, 12, 80, 0.3, trial.toLong + 50)
      // Drive RP, recording per-version expected sampled-edge sets.
      val sample = new AdjacencySample
      val rp = new RandomPairing(10, sample, rng)
      val expected = scala.collection.mutable.ArrayBuffer[Set[Edge]](Set.empty)
      val changes = scala.collection.mutable.ArrayBuffer.empty[(Int, Boolean, Edge)]
      expected(0) = sample.snapshotEdges().toSet
      stream.zipWithIndex.foreach { case (el, i) =>
        rp.apply(el) match {
          case RandomPairing.Unchanged =>
          case RandomPairing.Applied => changes += ((i + 1, el.isInsert, el.edge))
          case RandomPairing.Replaced(v) =>
            changes += ((i + 1, false, v)); changes += ((i + 1, true, el.edge))
        }
        expected += sample.snapshotEdges().toSet
      }
      // Every left vertex of the stream has exactly the version's neighbours.
      val lefts = stream.map(_.edge.left).toSet
      def assertVersion(r: SampleReplayer, want: Set[Edge], clue: String): Unit =
        lefts.foreach { l =>
          assert(ids(r.leftNeighbors(l)) === want.filter(_.left == l).map(_.right),
            s"trial $trial $clue vertex $l")
        }
      // Rebuild every version (here the base is the empty pre-stream state).
      val snap = snapOf(Nil, changes.toSeq, stream.size)
      assert(snap.batchSize === stream.size)
      val replayer = new SampleReplayer(snap)
      expected.zipWithIndex.foreach { case (want, v) =>
        replayer.advanceTo(v)
        assertVersion(replayer, want, s"version $v")
      }
      // The snapshot Abacus.advanceBatch records after a non-empty prefix
      // (same RNG seed, so the same RP run) replays the same versions.
      val (prefix, batch) = stream.splitAt(30)
      val core = new Abacus(k = 10, seed = trial.toLong)
      core.processAll(prefix)
      assert(core.sampleSize > 0, s"trial $trial: S_0 must not be empty")
      val recorded = new SampleReplayer(core.advanceBatch(batch)._1)
      (0 to batch.size).foreach { v =>
        recorded.advanceTo(v)
        assertVersion(recorded, expected(prefix.size + v), s"batch version $v")
      }
    }
  }

  test("advanceBatch records each edge's weight and element before its update") {
    val stream = repro.TestGraphs.randomStream(12, 12, 120, 0.3, 31L)
    val (prefix, batch) = stream.splitAt(40)
    val seq = new Abacus(k = 10, seed = 4L)
    seq.processAll(prefix)
    val core = new Abacus(k = 10, seed = 4L)
    core.processAll(prefix)
    val (snap, weights) = core.advanceBatch(batch)
    assert(snap.batchSize === batch.size)
    assert(weights.length === batch.size)
    // The M+1 versions end in order, the last at the end of the log.
    assert(snap.ends.length === batch.size + 1)
    assert(snap.ends.sliding(2).forall(w => w(0) <= w(1)))
    assert(snap.ends.last === snap.isInsert.length)
    // The entries of version 0 are all inserts and together are S_0.
    val base = 0 until snap.ends(0)
    assert(base.forall(snap.isInsert(_)))
    assert(base.map(j => Edge(snap.left(j), snap.right(j))).toSet ===
      seq.rp.sample.snapshotEdges().toSet)
    assert(base.size === seq.sampleSize)
    batch.zipWithIndex.foreach { case (el, i) =>
      assert(weights(i) == DiscoveryProbability.increment(el.sign,
        seq.rp.streamEdgeCount, seq.rp.cb, seq.rp.cg, seq.k), s"edge $i")
      assert((snap.elemLeft(i), snap.elemRight(i)) === ((el.edge.left, el.edge.right)),
        s"edge $i")
      seq.process(el)
    }
    assert((core.rp.streamEdgeCount, core.rp.cb, core.rp.cg) ===
      ((seq.rp.streamEdgeCount, seq.rp.cb, seq.rp.cg)))
    assert(core.rp.sample.snapshotEdges().toSet === seq.rp.sample.snapshotEdges().toSet)
  }
}
