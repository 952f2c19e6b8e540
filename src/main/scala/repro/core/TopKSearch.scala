package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

/** Distributed top-k flow motif search (Section 5) and the DP-based top-1
  * variant (Section 5.1).
  *
  * Each structural match computes its local top-k with the floating-threshold
  * enumerator (or its top-1 flow with the DP module); the global answer is the
  * k best of those candidates — a standard per-group top-k followed by a tiny
  * global merge, so only O(k · |S|) candidate rows are shuffled.
  */
object TopKSearch {

  /** The k highest-flow maximal instances (φ = 0), best first. */
  def topK(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      k: Int
  ): Seq[InstanceRow] = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    FlowMotifSearch
      .matchRows(spark, edges, motif)
      .flatMap { mr =>
        val series = mr.series.map(_.toIndexedSeq).toIndexedSeq
        TopKEnumerator.topK(series, delta, k).map { inst =>
          InstanceRow(mr.vs, inst.flow, inst.tStart, inst.tEnd, inst.sets)
        }
      }
      .orderBy($"flow".desc)
      .limit(k)
      .collect()
      .toSeq
  }

  /** Top-1 instance flow via the dynamic-programming module (Algorithm 2). */
  def maxFlowDP(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long
  ): Double = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    val flows: Dataset[Double] = FlowMotifSearch
      .matchRows(spark, edges, motif)
      .map(mr => MaxFlowDP.maxFlow(mr.series.map(_.toIndexedSeq).toIndexedSeq, delta))
    import org.apache.spark.sql.functions._
    flows.toDF("mf").agg(coalesce(max("mf"), lit(0.0)).as("best")).head.getDouble(0)
  }
}
