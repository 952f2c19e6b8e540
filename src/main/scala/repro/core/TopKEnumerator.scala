package repro.core

import scala.collection.mutable

/** Top-k flow motif search inside one structural match (Section 5).
  *
  * Algorithm 1 ([[LocalEnumerator.search]]) with φ replaced by a *floating*
  * threshold: a min-heap holds the k best instance flows found so far, and a
  * prefix whose flow cannot strictly beat the current k-th best is pruned,
  * exactly as the paper replaces φ by `f(G_I^k)`.
  */
object TopKEnumerator {

  /** The up-to-k highest-flow maximal instances, best first. */
  def topK(
      seriesIn: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      k: Int
  ): Vector[LocalInstance] = {
    requireK(k)
    // Min-heap on instance flow: head is the k-th best so far.
    val heap = mutable.PriorityQueue.empty(Ordering.by[LocalInstance, Double](_.flow).reverse)
    def threshold: Double = if (heap.size >= k) heap.head.flow else Double.NegativeInfinity
    // search emits only instances that beat the threshold, so a full heap drops its worst.
    LocalEnumerator.search(seriesIn, delta)(_ > threshold) { inst =>
      if (heap.size >= k) heap.dequeue()
      heap.enqueue(inst)
    }
    heap.dequeueAll.toVector.sortBy((i: LocalInstance) => -i.flow)
  }

  /** The one check on k, made by the kernel and, before any Spark job, by
    * [[TopKSearch.topK]].
    */
  def requireK(k: Int): Unit = require(k >= 1, s"k must be >= 1, got $k")
}
