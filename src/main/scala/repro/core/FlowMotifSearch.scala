package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.functions._

/** A structural match bundled with its per-motif-edge time series, the unit of
  * work for phase P2. `vs(i)` is the graph vertex mapped to motif vertex `i`;
  * `series(i)` is `R(e_{i+1})`.
  */
final case class MatchRow(vs: Seq[Long], series: Seq[Seq[TF]])

/** A flow motif instance as a Spark row: the vertex mapping, its flow
  * (Equation 1), its temporal extent, and (optionally) its edge-sets.
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
  * P2 = [[LocalEnumerator]] (Algorithm 1) run per structural match inside a
  * typed `flatMap`.
  */
object FlowMotifSearch {

  /** Phase P1: one [[MatchRow]] per structural match. `G_T` is built by one
    * groupBy and collected into the DFS's index; every row is checked on the
    * way, so a null column, or a flow that is not positive and finite, fails
    * here with the column and its value.
    */
  def matchRows(spark: SparkSession, edges: DataFrame, motif: Motif): Dataset[MatchRow] = {
    import spark.implicits._
    val rows = StructuralMatcher.search(TimeSeriesGraph.build(edges), motif)(checkedSeries)(
      (vs, series) => MatchRow(vs.toSeq, series.toSeq))
    spark.createDataset(rows)
  }

  private def checkedSeries(r: Row): Seq[TF] = r.getSeq[Row](r.fieldIndex("series")).map { e =>
    for (c <- Seq("t", "f"))
      require(!e.isNullAt(e.fieldIndex(c)),
        s"column $c must not be null, got $c=null on edge (${r.getAs[Long]("src")}, ${r.getAs[Long]("dst")})")
    val x = TF(e.getAs[Long]("t"), e.getAs[Double]("f"))
    Series.requireFlow(x)
    x
  }

  /** All maximal instances of `(motif, δ, φ)` in the interaction network.
    *
    * @param edges          interaction multigraph: (src, dst, t, f)
    * @param materializeSets when false, `sets` is left empty in the output to
    *                        avoid shuffling edge-set payloads in count-only runs
    */
  def instances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double,
      materializeSets: Boolean = true
  ): Dataset[InstanceRow] = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    matchRows(spark, edges, motif).flatMap { mr =>
      val series = mr.series.map(_.toIndexedSeq).toIndexedSeq
      LocalEnumerator.enumerate(series, delta, phi).map { inst =>
        InstanceRow(mr.vs, inst.flow, inst.tStart, inst.tEnd,
          if (materializeSets) inst.sets else Seq.empty)
      }
    }
  }

  /** Number of maximal instances (count-only fast path). */
  def countInstances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Long = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    val counts = matchRows(spark, edges, motif)
      .map(mr => LocalEnumerator.count(mr.series.map(_.toIndexedSeq).toIndexedSeq, delta, phi))
    counts.toDF("n").agg(coalesce(sum("n"), lit(0L)).as("total")).head.getLong(0)
  }
}
