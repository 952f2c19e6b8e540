package repro.core

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.Row

/** The time-series graph `G_T` as compressed sparse rows: the one `G_T` every
  * search, the study, the join baseline and the network statistics read.
  *
  * Source `keys(i)` (sorted) owns pairs `off(i) until off(i + 1)`, sorted by
  * destination; pair `p` goes to `dst(p)` and its series is positions
  * `lo(p) until lo(p + 1)` of `t` and of each flow vector `f(j)`. Flow vectors
  * differ only in their flows, so the timestamps are shared. Primitive arrays
  * keep the broadcast small and its serialization at copy speed. The CSR is
  * private to `repro.core`: outside it, pairs are walked by [[StructuralMatcher.search]].
  */
private[repro] final class Index private (
    private[core] val keys: Array[Long],
    off: Array[Int],
    private[core] val dst: Array[Long],
    lo: Array[Int],
    t: Array[Long],
    f: Array[Array[Double]]
) extends Serializable {

  /** Number of pairs, `|E_T|`. */
  def pairs: Int = dst.length

  /** The pairs out of `v`, by binary search on `keys`; none if `v` has no out-edges. */
  private[core] def pairsOf(v: Long): Range = {
    val i = java.util.Arrays.binarySearch(keys, v)
    if (i < 0) Range(0, 0) else Range(off(i), off(i + 1))
  }

  /** `R(p)` under flow vector `j`: a view over the shared arrays, sorted by `(t, f(j))`. */
  private[core] def series(p: Int, j: Int): IndexedSeq[TF] = new Index.SeriesView(t, f(j), lo(p), lo(p + 1))

  /** The series of pairs `ps` under flow vector `j`, one per motif edge. */
  def seriesOf(ps: Array[Int], j: Int): IndexedSeq[IndexedSeq[TF]] = ArraySeq.unsafeWrapArray(ps.map(series(_, j)))
}

private[repro] object Index {

  /** The one `G_T` builder, on the driver with no shuffle, from the rows of
    * [[FlowMotifSearch.checkedRows]] under flow vectors `flows` (`flows(j)(i)`
    * is the flow of `rows(i)` in vector j): self-loops dropped, row ids sorted
    * once by `(src, dst, t)`, and each flow vector's flows then sorted within
    * every run of equal `(src, dst, t)`. Series j is thus in the
    * `(t, flows(j))` order `sort_array(struct(t, f))` gives on the graph with
    * those flows.
    */
  def apply(rows: Array[Row], flows: IndexedSeq[Array[Double]]): Index = {
    val (src, dst, t) = (rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getLong(2)))
    val order = Array.range(0, src.length).filter(i => src(i) != dst(i)).sorted(new Ordering[Int] {
      def compare(a: Int, b: Int): Int = {
        val c = java.lang.Long.compare(src(a), src(b))
        if (c != 0) c
        else {
          val d = java.lang.Long.compare(dst(a), dst(b))
          if (d != 0) d else java.lang.Long.compare(t(a), t(b))
        }
      }
    })
    val (s, d, ts, n) = (order.map(src), order.map(dst), order.map(t), order.length)
    val keys, dsts = Array.newBuilder[Long]
    val off, lo = Array.newBuilder[Int]
    for (k <- 0 until n) {
      val newSrc = k == 0 || s(k) != s(k - 1)
      if (newSrc) { keys += s(k); off += dsts.length }
      if (newSrc || d(k) != d(k - 1)) { dsts += d(k); lo += k }
    }
    off += dsts.length
    lo += n
    val fs = flows.toArray.map { fj =>
      val out = order.map(fj(_))
      var a = 0
      while (a < n) { // the sort left ties open only within runs of equal (src, dst, t)
        var b = a + 1
        while (b < n && ts(b) == ts(a) && d(b) == d(a) && s(b) == s(a)) b += 1
        java.util.Arrays.sort(out, a, b)
        a = b
      }
      out
    }
    new Index(keys.result(), off.result(), dsts.result(), lo.result(), ts, fs)
  }

  /** The one-vector [[Index]], over the rows' own flows. */
  def apply(rows: Array[Row]): Index = apply(rows, Vector(rows.map(_.getDouble(3))))

  /** Series `lo until hi` of `(t, f)` as an [[IndexedSeq]], with no copy. */
  private final class SeriesView(t: Array[Long], f: Array[Double], lo: Int, hi: Int) extends IndexedSeq[TF] {
    def length: Int = hi - lo
    def apply(i: Int): TF = {
      if (i < 0 || i >= length) throw new IndexOutOfBoundsException(s"$i is not in 0 until $length")
      TF(t(lo + i), f(lo + i))
    }
  }
}
