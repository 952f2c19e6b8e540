package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed top-k flow motif search (Section 5) and the DP-based top-1
  * variant (Section 5.1).
  *
  * Each structural match computes its local top-k with the floating-threshold
  * enumerator (or its top-1 flow with the DP module) in the task that found
  * it; each task keeps its k best candidates and the driver merges them, so
  * nothing is shuffled.
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
    LocalEnumerator.requireDelta(delta)
    TopKEnumerator.requireK(k)
    FlowMotifSearch.perMatch(edges, motif) { (vs, series) =>
      val v = vs.toSeq
      TopKEnumerator.topK(series, delta, k).map(FlowMotifSearch.instanceRow(v, _))
    }.flatMap(identity).top(k)(Ordering.by(_.flow)).toSeq
  }

  /** Top-1 instance flow via the dynamic-programming module (Algorithm 2). */
  def maxFlowDP(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long
  ): Double = {
    LocalEnumerator.requireDelta(delta)
    FlowMotifSearch.perMatch(edges, motif)((_, series) => MaxFlowDP.maxFlow(series, delta)).fold(0.0)(math.max)
  }
}
