package repro.core

/** Interactions `(src(i), dst(i), t(i), f(i))` as primitive columns, with `extra(j)(i)` in
  * extra column j, as [[FlowMotifSearch.checkedEdges]] collects them for [[Index]]. */
private[repro] final class Interactions(val src: Array[Long], val dst: Array[Long], val t: Array[Long],
    val f: Array[Double], val extra: Array[Array[Double]]) extends Serializable {

  def length: Int = src.length

  /** Interactions `a` and `b` compared by `(src, dst, t, f)`. */
  def compare(a: Int, b: Int): Int =
    if (src(a) != src(b)) java.lang.Long.compare(src(a), src(b))
    else if (dst(a) != dst(b)) java.lang.Long.compare(dst(a), dst(b))
    else if (t(a) != t(b)) java.lang.Long.compare(t(a), t(b))
    else java.lang.Double.compare(f(a), f(b))

  /** Interactions `ids(0), ids(1), …`. */
  def take(ids: Array[Int]): Interactions = {
    def longs(a: Array[Long]) = java.util.Arrays.stream(ids).mapToLong(a(_)).toArray
    def doubles(a: Array[Double]) = java.util.Arrays.stream(ids).mapToDouble(a(_)).toArray
    new Interactions(longs(src), longs(dst), longs(t), doubles(f), extra.map(doubles))
  }

  /** Sorted by `(src, dst, t, f)`, ties in order, given sorted runs `runs(r) until runs(r + 1)`. */
  def sorted(runs: Array[Int]): Interactions = take(Interactions.argsort(runs)(compare))
}

private[repro] object Interactions {

  /** The ids `0 until runs.last` sorted stably by `cmp`, given sorted runs `runs(r) until runs(r + 1)`
    * (`Array.range(0, n + 1)` sorts from scratch): a bottom-up merge of primitive ids, no boxing. */
  def argsort(runs: Array[Int])(cmp: (Int, Int) => Int): Array[Int] = {
    var from = Array.range(0, runs.last); var to = new Array[Int](runs.last); var rs = runs // this pass's runs
    while (rs.length > 2) { // run r of the next pass merges runs 2r and 2r + 1
      val a = from; val b = to; val last = rs.length - 1
      val next = java.util.stream.IntStream.range(0, rs.length / 2 + 1).map(r => rs(math.min(2 * r, last))).toArray
      for (r <- 0 until next.length - 1) {
        val mid = rs(math.min(2 * r + 1, last)); val hi = next(r + 1)
        var i = next(r); var j = mid; var k = next(r)
        while (k < hi) {
          if (j == hi || (i < mid && cmp(a(i), a(j)) <= 0)) { b(k) = a(i); i += 1 } else { b(k) = a(j); j += 1 }
          k += 1
        }
      }
      from = b; to = a; rs = next
    }
    from
  }
}
