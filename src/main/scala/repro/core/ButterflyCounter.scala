package repro.core

/** Per-edge butterfly counting (Algorithm 1, lines 7–11).
  *
  * For an incoming edge `{u, v}` (u ∈ L, v ∈ R) it counts the butterflies
  * that `{u, v}` forms with the edges of an [[Adjacency]], the view: every
  * butterfly `{u, v, x, w}` (x ∈ L, w ∈ R) discovered requires the three
  * view edges `{u, w}`, `{x, w}`, `{x, v}`.
  *
  * The *cheapest side* heuristic (line 7) picks the endpoint whose
  * view-neighbours have the smaller cumulative degree and drives the set
  * intersections from there. Each intersection is charged the size of the
  * smaller of the two neighbour sets, as if it iterated that set and probed
  * the larger; when both sets keep a bitmap (see [[LongSet]]) it is taken
  * by AND and popcount instead, for the same count and the same charge.
  * Butterflies and probes are integer sums over the sets' members, so
  * neither depends on the order in which a [[LongSet]] holds them.
  *
  * The cumulative degrees are only compared, so only the side with fewer
  * neighbours is summed in full; the other is summed until it reaches that
  * sum, which spares the walk over a hub side that loses the comparison.
  */
object ButterflyCounter {

  /** Count of butterflies found plus the work (membership probes) spent. */
  final case class Result(butterflies: Long, work: Long)

  /** Count the butterflies the edge `{u, v}` forms with the view.
    *
    * Handles both insertions and deletions: for a deletion the edge itself
    * may still be present in the view, so the endpoints `u`/`v` are excluded
    * from the neighbour sets during intersection (the paper's running
    * example excludes `u` explicitly).
    */
  def countForEdge(view: Adjacency, u: Long, v: Long): Result = {
    val nu = view.leftNeighbors(u)  // right-side neighbours of u
    val nv = view.rightNeighbors(v) // left-side neighbours of v

    if (nu.isEmpty || nv.isEmpty) return Result(0L, 0L)

    if (uIsCheaper(view, nu, nv))
      // Explore w ∈ N_u^S \ {v}; intersect N_w^S with N_v^S, excluding u.
      explore(view, nu, right = true, skip = v, nv, exclude = u)
    else
      // Symmetric: explore x ∈ N_v^S \ {u}; intersect N_x^S with N_u^S,
      // excluding v.
      explore(view, nv, right = false, skip = u, nu, exclude = v)
  }

  /** Neighbours of `x`, a right vertex if `right`, else a left one. */
  private def neighbors(view: Adjacency, x: Long, right: Boolean): LongSet =
    if (right) view.rightNeighbors(x) else view.leftNeighbors(x)

  /** Whether `Σ_{w ∈ nu} d(w) ≤ Σ_{x ∈ nv} d(x)` (explore u, ties
    * included). The side with fewer members is summed in full, to `s`; the
    * other stops once it reaches its cap, and a capped sum is at least the
    * cap exactly when the full sum is. With the cap `s` for Σ_v, the capped
    * sum is ≥ s iff Σ_v ≥ s; with the cap `s + 1` for Σ_u, it is ≤ s iff
    * Σ_u ≤ s. So the decision equals the one over full sums.
    */
  private def uIsCheaper(view: Adjacency, nu: LongSet, nv: LongSet): Boolean =
    if (nu.size <= nv.size) {
      val s = cumDegree(view, nu, right = true, Long.MaxValue)
      s <= cumDegree(view, nv, right = false, s)
    } else {
      val s = cumDegree(view, nv, right = false, Long.MaxValue)
      cumDegree(view, nu, right = true, s + 1) <= s
    }

  /** Σ of the view degrees of the members of `s` (right vertices if
    * `right`), in position order, stopping once it reaches `cap`.
    */
  private def cumDegree(view: Adjacency, s: LongSet, right: Boolean, cap: Long): Long = {
    var sum = 0L
    var i = 0
    while (i < s.size && sum < cap) {
      sum += neighbors(view, s.keyAt(i), right).size
      i += 1
    }
    sum
  }

  /** Intersect the neighbours of every member of `outer` but `skip` (right
    * vertices if `right`) with `other`, excluding `exclude`.
    */
  private def explore(view: Adjacency, outer: LongSet, right: Boolean, skip: Long,
                      other: LongSet, exclude: Long): Result = {
    var found = 0L
    var work = 0L
    var i = 0
    while (i < outer.size) {
      val x = outer.keyAt(i)
      if (x != skip) {
        val nx = neighbors(view, x, right)
        found += intersectCount(nx, other, exclude)
        work += math.min(nx.size, other.size)
      }
      i += 1
    }
    Result(found, work)
  }

  /** |a ∩ b| excluding one vertex. It costs `min(|a|, |b|)` probes: the
    * paper's load metric, "checks that happened within the set intersection
    * operations" (§VI-G), however the count is taken.
    *
    * When both sets keep a bitmap, the count is the popcount of their AND
    * over the overlap of the two windows, less one if `exclude` is in both.
    * Otherwise it iterates the smaller set and tests each member in the
    * larger one: a bit test if the larger keeps a bitmap, else a hash probe
    * (or, in a set too small for a table, a scan).
    */
  private def intersectCount(a: LongSet, b: LongSet, exclude: Long): Long =
    if (a.bitmapWords > 0 && b.bitmapWords > 0)
      a.andCount(b) - (if (a.contains(exclude) && b.contains(exclude)) 1 else 0)
    else {
      val small = if (a.size <= b.size) a else b
      val large = if (small eq a) b else a
      var c = 0L
      var i = 0
      while (i < small.size) {
        val x = small.keyAt(i)
        if (x != exclude && large.contains(x)) c += 1
        i += 1
      }
      c
    }
}
