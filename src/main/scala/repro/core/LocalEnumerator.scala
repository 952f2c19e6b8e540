package repro.core

/** Phase P2 of the paper's two-phase algorithm: the one window scan and the
  * one Algorithm-1 recursion behind counting/enumeration (fixed φ), top-k
  * ([[TopKEnumerator]], floating threshold) and the top-1 DP ([[MaxFlowDP]],
  * which reuses only the window scan).
  *
  * Windows are anchored at each timestamp of `R(e_1)`: `T = [t_s, t_s + δ]`.
  * A window is *skipped* when it contains no `R(e_m)` element later than the
  * end of the previous non-skipped window — the paper's rule for position
  * [13,23] in Figure 7. Why this is exactly right:
  *
  *  - Every instance generated in a window contains the window's first
  *    `R(e_1)` element (prefixes start at the window start) and, because the
  *    last edge-set takes *all* remaining elements, the latest `R(e_m)`
  *    element of the window that is after `max E_{m-1}` — which is the
  *    latest `R(e_m)` element in the whole window.
  *  - If a window anchored at `t_s` were not skipped but one of its instances
  *    could be extended by an earlier `R(e_1)` element `x` (the only possible
  *    cross-window extension), then the instance's last element would be
  *    ≤ x + δ; but the last element is an `R(e_m)` element strictly later
  *    than every previously covered window end, in particular later than
  *    `x + δ` (else `x`'s own window would not have been skipped/preceding).
  *    Contradiction — so every emitted instance is maximal.
  *  - Conversely any maximal instance is found in the window anchored at its
  *    first `R(e_1)` element (that window is never skipped: the instance's
  *    own last `e_m` element is new, otherwise extending the instance into
  *    the previous window's enumeration would contradict its maximality).
  *
  * Within a window, maximality forces each `E_{i+1}` to start at the first
  * `R(e_{i+1})` element strictly after `max E_i`, and forces each edge-set to
  * be a gap-free run; the only freedom is where each of the first m-1
  * edge-sets ends. A prefix of `e_i` ending at element `x` is admissible only
  * if `e_i`'s next element is after the window end, or some `R(e_{i+1})`
  * element lies strictly between `x` and that next element (otherwise the
  * next element could be added — the paper's "no instance contains just the
  * first two elements of e_1" remark for Figure 7). The φ check on every
  * prefix prunes the search space exactly as in Algorithm 1 line 16; top-k
  * replaces φ by the k-th best flow found so far (Section 5).
  */
object LocalEnumerator {

  /** Enumerate all maximal instances of an m-edge motif over `series`, where
    * `series(i)` is the interaction series mapped to motif edge label i+1.
    */
  def enumerate(
      series: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      phi: Double
  ): Vector[InstanceRow] = {
    requirePhi(phi)
    val out = Vector.newBuilder[InstanceRow]
    search(series, delta)(_ >= phi)(out += _)
    out.result()
  }

  /** Count instances without materializing them. */
  def count(series: IndexedSeq[IndexedSeq[TF]], delta: Long, phi: Double): Long = {
    requirePhi(phi)
    var n = 0L
    search(series, delta)(_ >= phi)(_ => n += 1)
    n
  }

  /** The one check on δ, made by every P2 kernel and, before any Spark job,
    * by every search entry point.
    */
  def requireDelta(delta: Long): Unit = require(delta >= 0, s"delta must be non-negative, got $delta")

  /** The one check on φ, made as [[requireDelta]] is: no flow passes `flow >= NaN`. φ = ±∞ stays legal. */
  def requirePhi(phi: Double): Unit = require(!phi.isNaN, s"phi must be a number, got $phi")

  /** Check `series` once and call `visit(a, windowEnd)` for every window
    * `[R(e_1)(a).t, R(e_1)(a).t + δ]` the skip rule keeps, in order.
    */
  private[core] def windows(series: IndexedSeq[IndexedSeq[TF]], delta: Long)(visit: (Int, Long) => Unit): Unit = {
    requireDelta(delta)
    Series.check(series)
    if (series.isEmpty || series.exists(_.isEmpty)) return
    val e1 = series.head
    val em = series.last
    var lo = 0 // the first R(e_m) element after the end of the last window kept
    for (a <- e1.indices) {
      val we = if (e1(a).t > Long.MaxValue - delta) Long.MaxValue else e1(a).t + delta // saturated, never wraps
      // Skip rule: no R(e_m) element in (previous end, we] => only non-maximal instances.
      if (lo < em.length && em(lo).t <= we) {
        visit(a, we)
        lo = Series.upperBound(em, we)
      }
    }
  }

  /** Algorithm 1: invoke `emit` for every maximal instance whose edge-set flow
    * sums all pass `admit`. `admit` sees the running minimum edge-set flow of
    * each admissible prefix (the instance flow so far) and is re-evaluated on
    * every prefix, so its threshold may rise while the search runs. The
    * recursion records only where each edge-set starts and ends; `emit`'s
    * row is built only if the emitter reads it.
    */
  private[core] def search(series: IndexedSeq[IndexedSeq[TF]], delta: Long)(admit: Double => Boolean)(
      emit: (=> InstanceRow) => Unit
  ): Unit = windows(series, delta) { (a, windowEnd) =>
    val m = series.length
    val (start, end) = (new Array[Int](m), new Array[Int](m)) // E_{i+1} = series(i).slice(start(i), end(i))
    def instance = InstanceRow.of(Vector.tabulate(m)(i => series(i).slice(start(i), end(i)).toVector))

    def rec(ei: Int, startIdx: Int, minSoFar: Double): Unit = {
      val s = series(ei)
      // The last edge-set is cut only at the window end: no next series stops it.
      val next = if (ei + 1 < m) series(ei + 1) else IndexedSeq.empty[TF]
      var fsum = 0.0
      var k = startIdx
      while (k < s.length && s(k).t <= windowEnd) {
        fsum += s(k).f
        val nIdx = Series.upperBound(next, s(k).t) // forced start of E_{i+1}
        // Maximal cut: e_i's next element must not be addable to this prefix:
        // it is past the window, or E_{i+1} starts no later than it.
        val maximalCut = k + 1 == s.length || s(k + 1).t > windowEnd ||
          nIdx < next.length && next(nIdx).t <= s(k + 1).t
        val flow = math.min(minSoFar, fsum)
        if (maximalCut && admit(flow)) { // prefix pruning (Algorithm 1 line 16)
          start(ei) = startIdx
          end(ei) = k + 1
          if (ei == m - 1) emit(instance)
          else rec(ei + 1, nIdx, flow)
        }
        k += 1
      }
    }

    rec(0, a, Double.PositiveInfinity)
  }
}
