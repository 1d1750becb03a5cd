package repro

import repro.core.{Edge, LongSet, StreamElement}
import repro.graph.StreamGen

/** Shared small-graph fixtures and stream builders for the unit tests. */
object TestGraphs {

  /** Complete bipartite K_{a,b}: edges (1..a) × (1..b) in row-major order.
    * It contains exactly C(a,2)·C(b,2) butterflies.
    */
  def completeBipartite(a: Int, b: Int): IndexedSeq[(Long, Long)] =
    for (l <- 1 to a; r <- 1 to b) yield (l.toLong, r.toLong)

  /** Expected butterfly count of K_{a,b}. */
  def completeBipartiteButterflies(a: Int, b: Int): Long =
    (a.toLong * (a - 1) / 2) * (b.toLong * (b - 1) / 2)

  /** A path l1-r1-l2-r2: zero butterflies however you stream it. */
  val butterflyFreeEdges: IndexedSeq[(Long, Long)] =
    IndexedSeq((1L, 1L), (2L, 1L), (2L, 2L))

  /** The members of a neighbour set, for comparison with expected sets. */
  def ids(s: LongSet): Set[Long] = {
    val b = Set.newBuilder[Long]
    s.foreach(b += _)
    b.result()
  }

  /** Random small bipartite edge set (distinct, deterministic). */
  def randomEdges(nL: Int, nR: Int, m: Int, seed: Long): IndexedSeq[(Long, Long)] =
    scala.collection.immutable.ArraySeq.unsafeWrapArray(
      SynthData.bipartiteEdgesLocal(nL, nR, m, 0.5, 0.5, seed))

  /** Random fully dynamic stream over a random small graph. */
  def randomStream(nL: Int, nR: Int, m: Int, alpha: Double,
                   seed: Long): Vector[StreamElement] =
    StreamGen.fullyDynamic(randomEdges(nL, nR, m, seed), alpha, seed + 1)

  /** Insert-only stream of `edges` in the given order. */
  def inserts(edges: Seq[(Long, Long)]): Vector[StreamElement] =
    edges.iterator.map { case (l, r) => StreamElement.insert(l, r) }.toVector

  /** Insert-only stream over K_{a,b}. */
  def completeStream(a: Int, b: Int): Vector[StreamElement] =
    inserts(completeBipartite(a, b))

  /** The running example of Fig. 1b: sample S with left vertices {l1, l2}
    * plus u, right vertices {r2, v}(=r1); S = {(l1,v), (l2,v), (u,r2),
    * (l1,r2)}. The incoming edge {u,v} forms exactly one butterfly
    * {u, v, l1, r2} with S.
    *
    * Encoding: left u=10, l1=1, l2=2; right v=20, r2=5.
    */
  object Fig1b {
    val u = 10L
    val v = 20L
    val sampleEdges: IndexedSeq[Edge] =
      IndexedSeq(Edge(1L, v), Edge(2L, v), Edge(u, 5L), Edge(1L, 5L))
    val expectedButterflies = 1L
  }
}
