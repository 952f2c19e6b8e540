package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed top-k flow motif search (Section 5) and the DP-based top-1
  * variant (Section 5.1).
  *
  * Each task of [[StructuralMatcher.aggregate]] runs the floating-threshold
  * enumerator (or the DP module, for the top-1 flow) on each match it finds
  * straight into its one selection ([[TopKEnumerator.Best]]), whose k-th best
  * prunes all its matches: on the driver's walk, the paper's one threshold.
  * The driver merges the tasks' selections, so nothing is shuffled. Both select
  * under one total order, so tied flows give the same instances however the
  * walk is split, and a large k allocates nothing up front.
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
      new TopKEnumerator.Best(k))((best, gt, vs, ps) =>
      TopKEnumerator.search(best)(gt.seriesOf(ps, 0), delta)(_.copy(vs = vs.toSeq)),
      (a, b) => a.offerAll(b.sorted)).sorted
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
      (best, gt, _, ps) => math.max(best, MaxFlowDP.maxFlow(gt.seriesOf(ps, 0), delta)), math.max)
  }
}
