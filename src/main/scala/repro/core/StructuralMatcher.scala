package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** Phase P1 (Section 4): find every structural match of a motif's spanning
  * path in the time-series graph, disregarding timestamps, δ and φ.
  *
  * This is the paper's modified DFS over the [[Index]] that the caller builds on the driver,
  * which walks a small index itself ([[aggregate]]) and otherwise broadcasts it, each task
  * walking the spanning path from its share of the start vertices. The pairs out of a vertex
  * are found by binary search on the index's sorted sources. The walk binds a motif vertex
  * on its first visit to any out-neighbour not bound yet (the vertex bijection), and on a
  * revisit (cycle closure) follows only the edge to the vertex already bound. The pair id
  * of each traversed edge rides along, so phase P2 reads each match's series from the index
  * and no join is needed.
  */
object StructuralMatcher {

  /** All structural matches. Output columns: `v0..v{numVertices-1}`, one row
    * per match, where `v{i}` is the graph vertex mapped to motif vertex `i`.
    * The pairs are checked and read as edges `(src, dst, 0, 1.0)` by
    * [[FlowMotifSearch.checkedEdges]]; self-loops and repeats drop out.
    *
    * @param pairs distinct `(src, dst)` pairs of `G_T`, self-loops excluded
    */
  def matches(pairs: DataFrame, motif: Motif): DataFrame = {
    val sc = pairs.sparkSession.sparkContext
    val e = FlowMotifSearch.checkedEdges(pairs.select(col("src"), col("dst"), lit(0L).as("t"), lit(1.0).as("f")))
    val out = search(sc, Index(e), motif)((_, vs, _) => Row.fromSeq(vs.toSeq))
    val schema = StructType(motif.vertexIds.map(i => StructField(s"v$i", LongType, nullable = false)))
    pairs.sparkSession.createDataFrame(out, schema)
  }

  /** Every structural match of `motif` over `index`, its start vertices split
    * over `sc.defaultParallelism` tasks: one `out(gt, vs, ps)` per match,
    * where `gt` is the executor's copy of the index, `vs(i)` is the graph
    * vertex bound to motif vertex `i` and `ps(i)` is the pair motif edge
    * `i+1` traverses. Both arrays are reused between calls, so `out` must copy
    * what it keeps. The distributed outputs ([[matches]], instances, the join baseline's
    * step 1) take this RDD, which folds one start key at a time into a fresh buffer, and every
    * scalar answer [[aggregate]]s the same fold. No answer may depend on how it is split.
    */
  private[repro] def search[R: ClassTag](sc: SparkContext, index: Index, motif: Motif)(
      out: (Index, Array[Long], Array[Int]) => R
  ): RDD[R] = {
    val gt = sc.broadcast(index)
    startKeys(sc, index).mapPartitions(_.flatMap { i =>
      fold(gt.value, motif, Iterator(i), ArrayBuffer.empty[R])((found, g, vs, ps) => found += out(g, vs, ps))
    })
  }

  /** Below this many [[Index.cells]], [[aggregate]] walks on the driver, which ends sooner than a job would. */
  private[core] val DriverCells = 1L << 15

  /** The walk folded to one value: `step(acc, gt, vs, ps)` folds each match into its task's `zero`, and `merge`
    * merges the tasks' results in start-key order. Under [[DriverCells]] (DESIGN §3, row 3) the driver that built
    * the index walks it as one task, with no broadcast and no job; else one job runs [[search]]'s tasks over a
    * broadcast destroyed when it ends. Every merge is exact, so both give the same answer to the bit. */
  private[repro] def aggregate[A: ClassTag](sc: SparkContext, index: Index, motif: Motif, zero: => A)(
      step: (A, Index, Array[Long], Array[Int]) => A, merge: (A, A) => A): A =
    if (index.cells < DriverCells) fold(index, motif, index.keys.indices.iterator, zero)(step)
    else {
      val gt = sc.broadcast(index)
      try sc.runJob(startKeys(sc, index), (_: TaskContext, it: Iterator[Int]) => fold(gt.value, motif, it, zero)(step))
        .reduce(merge) finally gt.destroy()
    }

  private def startKeys(sc: SparkContext, index: Index) = sc.parallelize(index.keys.indices, sc.defaultParallelism)

  /** One task: the DFS along the spanning path from each start key in `keys`, folding each match into `zero`
    * by `step`. Motif vertices are numbered by first appearance along the path, so after binding `n` of
    * them, `path(i + 1)` is new exactly when it equals `n`.
    */
  private def fold[A](gt: Index, motif: Motif, keys: Iterator[Int], zero: A)(
      step: (A, Index, Array[Long], Array[Int]) => A): A = {
    val path = motif.path
    val vs = new Array[Long](motif.numVertices)
    val ps = new Array[Int](motif.m)
    var acc = zero

    def dfs(i: Int, bound: Int): Unit =
      if (i == motif.m) acc = step(acc, gt, vs, ps)
      else {
        val b = path(i + 1)
        for (p <- gt.pairsOf(vs(path(i)))) {
          val w = gt.dst(p)
          if (b < bound) {
            if (w == vs(b)) { ps(i) = p; dfs(i + 1, bound) } // cycle closure
          } else if (!vs.iterator.take(bound).contains(w)) { // injectivity
            vs(b) = w; ps(i) = p; dfs(i + 1, bound + 1)
          }
        }
      }

    for (k <- keys) { vs(0) = gt.keys(k); dfs(0, 1) }
    acc
  }
}
