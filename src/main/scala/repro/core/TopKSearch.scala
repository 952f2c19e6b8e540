package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed top-k flow motif search (Section 5) and the DP-based top-1
  * variant (Section 5.1).
  *
  * Each structural match computes its local top-k with the floating-threshold
  * enumerator (or its top-1 flow with the DP module) in the task that found
  * it; each task keeps its k best candidates and the driver merges them, so
  * nothing is shuffled. Heap and merge are one selection
  * ([[TopKEnumerator.Best]]) under one total order, so tied flows give the
  * same instances however the walk is split, and a large k allocates nothing
  * up front.
  */
object TopKSearch {

  /** The k best maximal instances (φ = 0), best first under
    * [[TopKEnumerator.rowOrder]]: flow descending, ties broken by the
    * vertices, then by the edge-sets' timestamps.
    */
  def topK(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      k: Int
  ): Seq[InstanceRow] = {
    LocalEnumerator.requireDelta(delta)
    TopKEnumerator.requireK(k)
    val perTask = FlowMotifSearch.perMatch(edges, motif) { (vs, series) =>
      val v = vs.toSeq
      TopKEnumerator.topK(series, delta, k).map(FlowMotifSearch.instanceRow(v, _))
    }.mapPartitions(matches => Iterator.single(TopKEnumerator.best(matches.flatten, k, TopKEnumerator.rowOrder)))
    TopKEnumerator.best(perTask.collect().iterator.flatten, k, TopKEnumerator.rowOrder)
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
