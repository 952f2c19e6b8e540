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
      series: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): (Vector[Long], Vector[Vector[Double]]) = {
    Series.check(series)
    val (ts, table) = eq2(series, windowStart, windowEnd)
    (ts.toVector, table.map(_.toVector).toVector)
  }

  /** Top-1 instance flow over the whole structural match: Algorithm 2 applied
    * to every window [[LocalEnumerator.windows]] keeps. A skipped window's
    * instances are all dominated by extensions found in an earlier window, and
    * extensions only gain flow. The series are checked once, by the window
    * scan, not once per window. A kept window holds its anchor, so its grid is
    * never empty.
    */
  def maxFlow(series: IndexedSeq[IndexedSeq[TF]], delta: Long): Double = {
    var best = 0.0
    LocalEnumerator.windows(series, delta) { (a, windowEnd) =>
      best = math.max(best, eq2(series, series.head(a).t, windowEnd)._2.last.last)
    }
    best
  }

  /** Equation 2 over checked series in `[windowStart, windowEnd]`: the
    * grid `t_1..t_τ` and the matrix `flow(κ-1)(i)`, both read from each
    * series' slice of the window.
    */
  private def eq2(
      series: IndexedSeq[IndexedSeq[TF]],
      windowStart: Long,
      windowEnd: Long
  ): (Array[Long], Array[Array[Double]]) = {
    val m = series.length
    val from = series.map(Series.lowerBound(_, windowStart))
    val until = series.map(Series.upperBound(_, windowEnd))
    val ts = (0 until m).flatMap(e => (from(e) until until(e)).map(series(e)(_).t)).distinct.sorted.toArray
    val tau = ts.length

    // flowsum(e)(i) = cumulative flow of series(e) elements in [windowStart, ts(i)]
    val cum: Array[Array[Double]] = Array.tabulate(m) { e =>
      val s = series(e)
      val out = new Array[Double](tau)
      var acc = 0.0
      var p = from(e)
      for (i <- 0 until tau) {
        while (p < until(e) && s(p).t <= ts(i)) { acc += s(p).f; p += 1 }
        out(i) = acc
      }
      out
    }
    val table = Array.ofDim[Double](m, tau)
    table(0) = cum(0)
    for (kappa <- 1 until m; i <- 0 until tau) {
      var best = 0.0
      var j = 1
      while (j <= i) { // cum(κ)(i) - cum(κ)(j-1): the flow of series(κ) in [t_j, t_i], timestamps being the grid
        best = math.max(best, math.min(table(kappa - 1)(j - 1), cum(kappa)(i) - cum(kappa)(j - 1)))
        j += 1
      }
      table(kappa)(i) = best
    }
    (ts, table)
  }
}
