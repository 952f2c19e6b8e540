package repro.core

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

/** A structural match bundled with its per-motif-edge time series, the unit of
  * work for phase P2. `vs(i)` is the graph vertex mapped to motif vertex `i`;
  * `series(i)` is `R(e_{i+1})`.
  */
final case class MatchRow(vs: Seq[Long], series: Seq[Seq[TF]])

/** A flow motif instance as a Spark row: the vertex mapping, its flow
  * (Equation 1), its temporal extent, and its edge-sets.
  */
final case class InstanceRow(
    vs: Seq[Long],
    flow: Double,
    tStart: Long,
    tEnd: Long,
    sets: Seq[Seq[TF]]
)

/** The paper's two-phase flow motif search, distributed:
  * P1 = [[StructuralMatcher]] (the spanning-path DFS over a broadcast `G_T`
  * index, which hands each match over with its per-edge series);
  * P2 = [[LocalEnumerator]] (Algorithm 1), run on each match inside the
  * walk's own task by [[perMatch]], the one driver behind every search.
  */
object FlowMotifSearch {

  /** Phases P1 and P2: `p2(vs, series)` for each structural match, in the task
    * that found it. `vs` is reused between matches, so `p2` must copy what it
    * keeps. The DFS's index `src → [(dst, R(src, dst))]` is `G_T`, built on the
    * driver from one flat collect of the edges, with no shuffle. Every row,
    * self-loops included, is checked on the way, so a null column, or a flow
    * that is not positive and finite, fails here with the column and its value.
    */
  private[core] def perMatch[R: ClassTag](edges: DataFrame, motif: Motif)(
      p2: (Array[Long], IndexedSeq[IndexedSeq[TF]]) => R
  ): RDD[R] =
    StructuralMatcher.search(edges.sparkSession.sparkContext, seriesIndex(edges), motif)(
      (vs, series) => p2(vs, series.toIndexedSeq))

  /** `G_T` as `src → [(dst, R(src, dst))]`: self-loops dropped, each series
    * sorted by `(t, f)`, the order `TimeSeriesGraph.build`'s `sort_array` gives.
    */
  private def seriesIndex(edges: DataFrame): Map[Long, Array[(Long, IndexedSeq[TF])]] = {
    val checked = edges.select("src", "dst", "t", "f").collect().map { r =>
      val (s, d) = (StructuralMatcher.vertex(r, "src"), StructuralMatcher.vertex(r, "dst"))
      for (c <- Seq("t", "f"))
        require(!r.isNullAt(r.fieldIndex(c)), s"column $c must not be null, got $c=null on edge ($s, $d)")
      val x = TF(r.getAs[Long]("t"), r.getAs[Double]("f"))
      Series.requireFlow(x)
      ((s, d), x)
    }
    checked.filter { case ((s, d), _) => s != d }.groupMap(_._1)(_._2).toArray.groupMap(_._1._1) {
      case ((_, d), xs) => (d, xs.sortWith((a, b) => a.t < b.t || a.t == b.t && a.f < b.f).toIndexedSeq)
    }
  }

  private[core] def instanceRow(vs: Seq[Long], inst: LocalInstance): InstanceRow =
    InstanceRow(vs, inst.flow, inst.tStart, inst.tEnd, inst.sets)

  /** Phase P1 alone: one [[MatchRow]] per structural match. */
  def matchRows(spark: SparkSession, edges: DataFrame, motif: Motif): Dataset[MatchRow] = {
    import spark.implicits._
    spark.createDataset(perMatch(edges, motif)((vs, series) => MatchRow(vs.toSeq, series)))
  }

  /** All maximal instances of `(motif, δ, φ)` in the interaction network.
    *
    * @param edges interaction multigraph: (src, dst, t, f)
    */
  def instances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Dataset[InstanceRow] = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    spark.createDataset(perMatch(edges, motif) { (vs, series) =>
      val v = vs.toSeq
      LocalEnumerator.enumerate(series, delta, phi).map(instanceRow(v, _))
    }.flatMap(identity))
  }

  /** Number of maximal instances (count-only fast path). */
  def countInstances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Long = {
    LocalEnumerator.requireDelta(delta)
    perMatch(edges, motif)((_, series) => LocalEnumerator.count(series, delta, phi)).fold(0L)(_ + _)
  }
}
