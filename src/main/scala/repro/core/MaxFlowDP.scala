package repro.core

/** Dynamic-programming module for top-1 instance search (Section 5.1,
  * Algorithm 2 / Equation 2).
  *
  * Inside a window `T = [t_s, t_s+δ]` let `t_1 < t_2 < ... < t_τ` be the
  * distinct timestamps of all interactions of the structural match in `T`.
  * `Flow(i, κ)` is the maximum flow of any instance of the κ-edge prefix of
  * the motif inside `[t_1, t_i]`:
  *
  *   Flow(i, 1) = flow sum of R(e_1) elements in [t_1, t_i]
  *   Flow(i, κ) = max over j ≤ i of min(Flow(j-1, κ-1), flowsum_κ(t_j..t_i))
  *
  * A value of 0 encodes "no valid instance" (flows are strictly positive, so
  * real instances always have flow > 0; an empty edge-set contributes 0
  * through the min and is thereby excluded).
  */
object MaxFlowDP {

  /** The DP matrix for one explicit window, for tests/Table 2 reproduction.
    *
    * @return (timestamps `t_1..t_τ` in the window, matrix `flow(κ-1)(i)`)
    */
  def dpTable(
      seriesIn: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): (Vector[Long], Vector[Vector[Double]]) = sortedTable(Series.normalize(seriesIn), windowStart, windowEnd)

  /** [[dpTable]] over series that are already normalized. */
  private def sortedTable(
      series: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): (Vector[Long], Vector[Vector[Double]]) = {
    val m = series.length
    val ts = series.flatten
      .collect { case TF(t, _) if t >= windowStart && t <= windowEnd => t }
      .distinct.sorted.toVector
    val tau = ts.length
    if (tau == 0) return (ts, Vector.fill(m)(Vector.empty))

    // flowsum(e)(i) = cumulative flow of series(e) elements in [windowStart, ts(i)]
    val cum: Array[Array[Double]] = Array.tabulate(m) { e =>
      val s = series(e)
      val out = new Array[Double](tau)
      var acc = 0.0
      var p = Series.lowerBound(s, windowStart)
      for (i <- 0 until tau) {
        while (p < s.length && s(p).t <= ts(i)) { acc += s(p).f; p += 1 }
        out(i) = acc
      }
      out
    }
    // flow of series(e) elements in (ts(j-1), ts(i)] — i.e. [t_j, t_i] since
    // timestamps are the discrete grid.
    def rangeFlow(e: Int, j: Int, i: Int): Double =
      cum(e)(i) - (if (j == 0) 0.0 else cum(e)(j - 1))

    val table = Array.ofDim[Double](m, tau)
    for (i <- 0 until tau) table(0)(i) = cum(0)(i)
    for (kappa <- 1 until m; i <- 0 until tau) {
      var best = 0.0
      var j = 1
      while (j <= i) {
        val v = math.min(table(kappa - 1)(j - 1), rangeFlow(kappa, j, i))
        if (v > best) best = v
        j += 1
      }
      table(kappa)(i) = best
    }
    (ts, table.map(_.toVector).toVector)
  }

  /** Maximum instance flow in one window (0 when the window holds none). */
  def windowMaxFlow(
      series: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): Double = lastCell(dpTable(series, windowStart, windowEnd))

  private def lastCell(t: (Vector[Long], Vector[Vector[Double]])): Double =
    if (t._1.isEmpty) 0.0 else t._2.last.last

  /** Top-1 instance flow over the whole structural match: Algorithm 2 applied
    * to every window [[LocalEnumerator.windows]] keeps. A skipped window's
    * instances are all dominated by extensions found in an earlier window, and
    * extensions only gain flow. The series are checked once, by the window
    * scan, not once per window.
    */
  def maxFlow(seriesIn: IndexedSeq[IndexedSeq[TF]], delta: Long): Double = {
    var best = 0.0
    LocalEnumerator.windows(seriesIn, delta) { (series, a, windowEnd) =>
      best = math.max(best, lastCell(sortedTable(series, series.head(a).t, windowEnd)))
    }
    best
  }
}
