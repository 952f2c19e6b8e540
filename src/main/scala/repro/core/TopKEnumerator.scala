package repro.core

import scala.collection.mutable
import scala.math.Ordering.Implicits.seqOrdering

/** Top-k flow motif search inside one structural match (Section 5).
  *
  * Algorithm 1 ([[LocalEnumerator.search]]) with φ replaced by a *floating*
  * threshold: a heap holds the k best instances found so far, and a prefix
  * whose flow is strictly below the current k-th best is pruned, as the paper
  * replaces φ by `f(G_I^k)`. A prefix whose flow ties the k-th best is kept,
  * since the tie-break may still prefer its instances.
  */
object TopKEnumerator {

  /** Top-k's one total order, best first: flow descending, then the edge-sets'
    * timestamps (`tStart` first). [[TopKSearch]]'s merge breaks flow ties by
    * the vertices first, so inside one match the two orders agree.
    */
  private[core] val order: Ordering[LocalInstance] = bestFirst[LocalInstance](_.flow)(Ordering.by(_.key))

  /** Flow descending, then `tie`. */
  private[core] def bestFirst[A](flow: A => Double)(tie: Ordering[A]): Ordering[A] = new Ordering[A] {
    def compare(a: A, b: A): Int = {
      val c = java.lang.Double.compare(flow(b), flow(a))
      if (c != 0) c else tie.compare(a, b)
    }
  }

  /** The up-to-k best maximal instances under [[order]], best first. */
  def topK(
      seriesIn: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      k: Int
  ): Vector[LocalInstance] = {
    requireK(k)
    val heap = mutable.PriorityQueue.empty(order) // head: the worst of the k kept
    def threshold: Double = if (heap.size >= k) heap.head.flow else Double.NegativeInfinity
    LocalEnumerator.search(seriesIn, delta)(_ >= threshold) { found =>
      val inst = found
      if (heap.size < k) heap.enqueue(inst)
      else if (order.lt(inst, heap.head)) { heap.dequeue(); heap.enqueue(inst) }
    }
    heap.toVector.sorted(order)
  }

  /** The one check on k, made by the kernel and, before any Spark job, by
    * [[TopKSearch.topK]].
    */
  def requireK(k: Int): Unit = require(k >= 1, s"k must be >= 1, got $k")
}
