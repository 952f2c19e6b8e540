package repro.core

import java.util.stream.IntStream
import scala.collection.immutable.ArraySeq

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

  /** Interactions × flow vectors: how much a walk with phase P2 reads. */
  def cells: Long = t.length.toLong * f.length

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

  /** The one `G_T` builder, on the driver with no shuffle, from the sorted
    * interactions of [[FlowMotifSearch.checkedEdges]] under flow vectors
    * `flows` (`flows(j)(i)` is interaction i's flow in vector j): self-loops
    * dropped, and each vector's flows sorted within every run of equal
    * `(src, dst, t)`, so series j is in the `(t, flows(j))` order
    * `sort_array(struct(t, f))` gives on the graph with those flows.
    */
  def apply(edges: Interactions, flows: IndexedSeq[Array[Double]]): Index = {
    def starts(n: Int)(newRun: Int => Boolean) = IntStream.range(0, n).filter(k => k == 0 || newRun(k)).toArray
    val kept = IntStream.range(0, edges.length).filter(i => edges.src(i) != edges.dst(i)).toArray
    val e = new Interactions(edges.src, edges.dst, edges.t, edges.f, flows.toArray).take(kept)
    val (s, d, ts, n) = (e.src, e.dst, e.t, e.length)
    val lo = starts(n)(k => s(k) != s(k - 1) || d(k) != d(k - 1)) // each pair's first interaction
    val off = starts(lo.length)(p => s(lo(p)) != s(lo(p - 1))) // each source's first pair
    val runs = starts(n)(k => s(k) != s(k - 1) || d(k) != d(k - 1) || ts(k) != ts(k - 1)) :+ n // equal (src, dst, t)
    for (out <- e.extra; r <- 0 until runs.length - 1) java.util.Arrays.sort(out, runs(r), runs(r + 1))
    val keys = java.util.Arrays.stream(off).mapToLong(p => s(lo(p))).toArray
    new Index(keys, off :+ lo.length, java.util.Arrays.stream(lo).mapToLong(d(_)).toArray, lo :+ n, ts, e.extra)
  }

  /** The one-vector [[Index]], over the interactions' own flows. */
  def apply(edges: Interactions): Index = apply(edges, Vector(edges.f))

  /** Series `lo until hi` of `(t, f)` as an [[IndexedSeq]], with no copy. */
  private final class SeriesView(t: Array[Long], f: Array[Double], lo: Int, hi: Int) extends IndexedSeq[TF] {
    def length: Int = hi - lo
    def apply(i: Int): TF = {
      if (i < 0 || i >= length) throw new IndexOutOfBoundsException(s"$i is not in 0 until $length")
      TF(t(lo + i), f(lo + i))
    }
  }
}
