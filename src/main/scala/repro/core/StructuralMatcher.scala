package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** Phase P1 (Section 4): find every structural match of a motif's spanning
  * path in the time-series graph, disregarding timestamps, δ and φ.
  *
  * This is the paper's modified DFS over an adjacency index
  * `src → [(dst, payload)]` that the caller builds on the driver; the index
  * is broadcast and each executor walks the spanning path from its share of
  * the start vertices. The walk binds a motif vertex on its first visit to any
  * out-neighbour not bound yet (the vertex bijection), and on a revisit
  * (cycle closure) follows only the edge to the vertex already bound. The
  * payload of each traversed edge rides along, so phase P2 gets each match
  * with its series and no join is needed.
  */
object StructuralMatcher {

  /** Column name for the graph vertex bound to motif vertex `i`. */
  def vcol(i: Int): String = s"v$i"

  /** All structural matches. Output columns: `v0..v{numVertices-1}`, one row
    * per match, where `v{i}` is the graph vertex mapped to motif vertex `i`.
    *
    * @param pairs distinct `(src, dst)` pairs of `G_T`, self-loops excluded
    */
  def matches(pairs: DataFrame, motif: Motif): DataFrame = {
    val index = pairs.select("src", "dst").collect().groupMap(vertex(_, "src"))(r => (vertex(r, "dst"), ()))
    val rows = search(pairs.sparkSession.sparkContext, index, motif)((vs, _) => Row.fromSeq(vs.toSeq))
    val schema = StructType(motif.vertexIds.map(i => StructField(vcol(i), LongType, nullable = false)))
    pairs.sparkSession.createDataFrame(rows, schema)
  }

  /** Every structural match of `motif` over `index` (`src → [(dst, payload)]`),
    * one `out(vs, payloads)` per match: `vs(i)` is the graph vertex bound to
    * motif vertex `i`, `payloads(i)` is the payload of the edge motif edge
    * `i+1` traverses. Both arrays are reused between calls, so `out` must copy
    * what it keeps.
    */
  def search[P: ClassTag, R: ClassTag](sc: SparkContext, index: Map[Long, Array[(Long, P)]], motif: Motif)(
      out: (Array[Long], Array[P]) => R
  ): RDD[R] = {
    val adjacency = sc.broadcast(index)
    val starts = index.keys.toVector.sorted
    sc.parallelize(starts, sc.defaultParallelism).mapPartitions { it =>
      val adj = adjacency.value
      val none = Array.empty[(Long, P)]
      it.flatMap { start =>
        val found = ArrayBuffer.empty[R]
        walk(v => adj.getOrElse(v, none), motif, start)((vs, ps) => found += out(vs, ps))
        found
      }
    }
  }

  /** Column `column` of `r` as a vertex id; a null fails with the column's name. */
  private[core] def vertex(r: Row, column: String): Long = {
    val i = r.fieldIndex(column)
    require(!r.isNullAt(i), s"column $column must not be null, got $column=null")
    r.getLong(i)
  }

  /** The DFS along the spanning path from one start vertex. Motif vertices
    * are numbered by first appearance along the path, so after binding `n`
    * of them, `path(i + 1)` is new exactly when it equals `n`.
    */
  private def walk[P: ClassTag](adj: Long => Array[(Long, P)], motif: Motif, start: Long)(
      emit: (Array[Long], Array[P]) => Unit
  ): Unit = {
    val path = motif.path
    val vs = new Array[Long](motif.numVertices)
    val ps = new Array[P](motif.m)

    def step(i: Int, bound: Int): Unit =
      if (i == motif.m) emit(vs, ps)
      else {
        val b = path(i + 1)
        for ((w, p) <- adj(vs(path(i)))) {
          if (b < bound) {
            if (w == vs(b)) { ps(i) = p; step(i + 1, bound) } // cycle closure
          } else if (!vs.iterator.take(bound).contains(w)) { // injectivity
            vs(b) = w; ps(i) = p; step(i + 1, bound + 1)
          }
        }
      }

    vs(0) = start
    step(0, 1)
  }
}
