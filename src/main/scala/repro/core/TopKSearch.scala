package repro.core

import scala.math.Ordering.Implicits.seqOrdering
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

  /** The k best maximal instances (φ = 0), best first: flow descending, ties
    * broken by the vertices, then by the edge-sets' timestamps, so the answer
    * does not depend on how the walk is split into tasks.
    */
  def topK(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      k: Int
  ): Seq[InstanceRow] = topK(edges, motif, delta, k, spark.sparkContext.defaultParallelism)

  /** [[topK]] with P1's start vertices split over `slices` tasks. */
  private[core] def topK(edges: DataFrame, motif: Motif, delta: Long, k: Int, slices: Int): Seq[InstanceRow] = {
    LocalEnumerator.requireDelta(delta)
    TopKEnumerator.requireK(k)
    val ord = order // the tasks' copy: a closure that read `order` would capture this object
    val perTask = FlowMotifSearch.perMatch(edges, motif, slices) { (vs, series) =>
      val v = vs.toSeq
      TopKEnumerator.topK(series, delta, k).map(FlowMotifSearch.instanceRow(v, _))
    }.mapPartitions(matches => Iterator.single(TopKEnumerator.best(matches.flatten, k, ord)))
    TopKEnumerator.best(perTask.collect().iterator.flatten, k, ord)
  }

  /** [[TopKEnumerator.order]] with the vertices between flow and timestamps. */
  private val order = TopKEnumerator.bestFirst[InstanceRow](_.flow)(Ordering.by(r => (r.vs, r.sets.map(_.map(_.t)))))

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
