package repro.core

/** One flow interaction `(t, f)` on an edge of the time-series graph `G_T`. */
final case class TF(t: Long, f: Double)

/** A maximal flow-motif instance inside one structural match.
  *
  * `sets(i)` is the edge-set instantiating motif edge `e_{i+1}` (label i+1),
  * ordered by timestamp. Sets are non-empty, mutually time-respecting
  * (everything in `sets(i)` is strictly before everything in `sets(i+1)`),
  * the overall span is at most δ and every set's flow sum is at least φ.
  */
final case class LocalInstance(sets: Vector[Vector[TF]]) {
  /** Instance flow (Equation 1): minimum flow sum over the edge-sets, summed once. */
  val flow: Double = sets.iterator.map(_.iterator.map(_.f).sum).min

  /** Timestamp of the temporally first interaction in the instance. */
  def tStart: Long = sets.head.head.t

  /** Timestamp of the temporally last interaction in the instance. */
  def tEnd: Long = sets.last.last.t

  /** Canonical key (the timestamps per edge-set) for set-equality in tests. */
  def key: Vector[Vector[Long]] = sets.map(_.map(_.t))
}

/** A structural match of a motif resolved to its per-edge time series:
  * `series(i)` is `R(e_{i+1})`, the interaction series on the graph edge that
  * motif edge with label i+1 is mapped to, sorted by timestamp.
  */
object Series {
  /** Validate and normalize a per-edge series bundle: sorted, positive flows.
    * One pass checks the flows and the order; only an unsorted series is
    * sorted (`G_T`'s are sorted already).
    */
  def normalize(series: IndexedSeq[IndexedSeq[TF]]): IndexedSeq[IndexedSeq[TF]] =
    series.map { s =>
      var sorted = true
      for (i <- s.indices) {
        requireFlow(s(i))
        if (i > 0 && s(i - 1).t > s(i).t) sorted = false
      }
      if (sorted) s else s.sortBy(_.t)
    }

  /** Flows must be positive and finite. Instance flows are then strictly
    * positive, which the DP's "0 = no instance" encoding relies on.
    */
  def requireFlow(x: TF): Unit = require(x.f > 0 && x.f < Double.PositiveInfinity,
    s"column f must be positive and finite, got f=${x.f} at t=${x.t}")

  /** Index of the first element with `t >= lo` (binary search; series sorted). */
  def lowerBound(s: IndexedSeq[TF], lo: Long): Int = {
    var a = 0; var b = s.length
    while (a < b) {
      val mid = (a + b) >>> 1
      if (s(mid).t < lo) a = mid + 1 else b = mid
    }
    a
  }

  /** Index of the first element with `t > x` (strictly after `x`). */
  def upperBound(s: IndexedSeq[TF], x: Long): Int = if (x == Long.MaxValue) s.length else lowerBound(s, x + 1)
}
