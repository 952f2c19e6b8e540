package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed top-k flow motif search (Section 5) and the DP-based top-1
  * variant (Section 5.1).
  *
  * Each structural match computes its local top-k with the floating-threshold
  * enumerator (or its top-1 flow with the DP module) in the walk that found
  * it; each task of [[StructuralMatcher.aggregate]] keeps its k best candidates
  * and the driver merges them, so nothing is shuffled. Heap and merge are one
  * selection ([[TopKEnumerator.Best]]) under one total order, so tied flows give the
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
    StructuralMatcher.aggregate(spark.sparkContext, Index(FlowMotifSearch.checkedEdges(edges)), motif,
      new TopKEnumerator.Best(k, TopKEnumerator.rowOrder)) { (gt, vs, ps) =>
      val v = vs.toSeq
      TopKEnumerator.topK(gt.seriesOf(ps, 0), delta, k).map(FlowMotifSearch.instanceRow(v, _))
    }(_ offerAll _, (a, b) => a.offerAll(b.sorted)).sorted
  }

  /** Top-1 instance flow via the dynamic-programming module (Algorithm 2). */
  def maxFlowDP(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long
  ): Double = {
    LocalEnumerator.requireDelta(delta)
    StructuralMatcher.aggregate(spark.sparkContext, Index(FlowMotifSearch.checkedEdges(edges)), motif, 0.0)(
      (gt, _, ps) => MaxFlowDP.maxFlow(gt.seriesOf(ps, 0), delta))(math.max, math.max)
  }
}
