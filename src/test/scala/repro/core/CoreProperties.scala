package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestGraphs
import repro.graph.StreamGen

/** ScalaCheck properties over randomly generated fully dynamic streams —
  * the fuzzing layer on top of the example-based suites.
  */
object CoreProperties extends Properties("core") {

  private val streamGen: Gen[Vector[StreamElement]] = for {
    nL <- Gen.choose(4, 15)
    nR <- Gen.choose(4, 15)
    m <- Gen.choose(10, 80)
    alphaTenths <- Gen.choose(0, 5)
    seed <- Gen.choose(1L, 100000L)
  } yield TestGraphs.randomStream(nL, nR, math.min(m, nL * nR), alphaTenths / 10.0, seed)

  property("abacus is exact when the budget covers the stream") =
    Prop.forAll(streamGen, Gen.choose(1L, 1000L)) { (stream, seed) =>
      val abacus = new Abacus(k = 100000, seed)
      abacus.processAll(stream)
      val exact = new ExactButterflyCounter
      exact.processAll(stream)
      math.abs(abacus.estimate - exact.count) < 1e-6
    }

  property("sample size never exceeds the budget") =
    Prop.forAll(streamGen, Gen.choose(2, 30)) { (stream, k) =>
      val abacus = new Abacus(k, seed = 1L)
      stream.forall { el => abacus.process(el); abacus.sampleSize <= k }
    }

  property("RP invariant |S| = min(k,|E|+cb+cg) − cb") =
    Prop.forAll(streamGen, Gen.choose(2, 30)) { (stream, k) =>
      val rp = new RandomPairing(k, new AdjacencySample, new java.util.SplittableRandom(3L))
      stream.forall { el =>
        rp.apply(el)
        rp.sample.size.toLong ==
          math.min(k.toLong, rp.streamEdgeCount + rp.cb + rp.cg) - rp.cb
      }
    }

  property("exact incremental count equals static recount of survivors") =
    Prop.forAll(streamGen) { stream =>
      val c = new ExactButterflyCounter
      c.processAll(stream)
      c.count == ExactButterflyCounter.countStatic(StreamGen.finalEdges(stream))
    }

  property("per-edge count equals the delta of exact counts") =
    Prop.forAll(streamGen) { stream =>
      // For each insertion, the butterflies counted against the full graph
      // must equal the increase of the exact count.
      val c = new ExactButterflyCounter
      stream.forall { el =>
        val before = c.count
        val found = ButterflyCounter.countForEdge(c, el.edge.left, el.edge.right)
        c.process(el)
        c.count - before == el.sign * found.butterflies
      }
    }

  property("stream generator emits only valid transitions") =
    Prop.forAll(streamGen) { stream =>
      val live = scala.collection.mutable.Set.empty[Edge]
      stream.forall { el =>
        if (el.isInsert) live.add(el.edge) else live.remove(el.edge)
      }
    }
}
