package repro.core

/** One flow interaction `(t, f)` on an edge of the time-series graph `G_T`. */
final case class TF(t: Long, f: Double)

/** A maximal flow-motif instance (Definition 3.3), as a Spark row: the vertex
  * mapping, its flow (Equation 1), its temporal extent, and its edge-sets.
  *
  * `sets(i)` is the edge-set instantiating motif edge `e_{i+1}` (label i+1),
  * ordered by timestamp. Sets are non-empty, mutually time-respecting
  * (everything in `sets(i)` is strictly before everything in `sets(i+1)`),
  * the overall span is at most δ and every set's flow sum is at least φ.
  */
final case class InstanceRow(
    vs: Seq[Long],
    flow: Double,
    tStart: Long,
    tEnd: Long,
    sets: Seq[Seq[TF]]
) {
  /** The timestamps per edge-set: with `vs`, what tells two instances apart. */
  def key: Seq[Seq[Long]] = sets.map(_.map(_.t))
}

object InstanceRow {
  /** A P2 kernel's row over edge-sets `sets`, each set's flow summed once. A kernel sees one match's series, not
    * its vertices, so `vs` is empty until the search fills it in. */
  def of(sets: Seq[Seq[TF]]): InstanceRow =
    InstanceRow(Seq.empty, sets.iterator.map(_.iterator.map(_.f).sum).min, sets.head.head.t, sets.last.last.t, sets)
}

/** A structural match of a motif resolved to its per-edge time series:
  * `series(i)` is `R(e_{i+1})`, the interaction series on the graph edge that
  * motif edge with label i+1 is mapped to, sorted by timestamp.
  */
object Series {
  /** The one check of a per-edge series bundle, made by every P2 kernel: positive, finite flows and
    * non-decreasing timestamps, as `G_T`'s series are. A series is never sorted here. */
  def check(series: IndexedSeq[IndexedSeq[TF]]): Unit = for (s <- series; i <- s.indices) {
    requireFlow(s(i))
    require(i == 0 || s(i - 1).t <= s(i).t, s"series must be sorted by t, got t=${s(i).t} after t=${s(i - 1).t}")
  }

  /** Flows must be positive and finite. Instance flows are then strictly
    * positive, which the DP's "0 = no instance" encoding relies on.
    */
  def requireFlow(x: TF): Unit = require(x.f > 0 && x.f < Double.PositiveInfinity,
    s"column f must be positive and finite, got f=${x.f} at t=${x.t}")

  /** Index of the first element with `t >= lo` (binary search; series sorted). */
  private[core] def lowerBound(s: IndexedSeq[TF], lo: Long): Int = {
    var a = 0; var b = s.length
    while (a < b) {
      val mid = (a + b) >>> 1
      if (s(mid).t < lo) a = mid + 1 else b = mid
    }
    a
  }

  /** Index of the first element with `t > x` (strictly after `x`). */
  private[core] def upperBound(s: IndexedSeq[TF], x: Long): Int = if (x == Long.MaxValue) s.length else lowerBound(s, x + 1)
}
