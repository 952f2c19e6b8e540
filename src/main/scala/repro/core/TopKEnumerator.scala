package repro.core

import scala.collection.mutable
import scala.math.Ordering.Implicits.seqOrdering

/** Top-k flow motif search (Section 5), one structural match at a time.
  *
  * Algorithm 1 ([[LocalEnumerator.search]]) with φ replaced by a *floating*
  * threshold: a heap holds the k best instances found so far, and a prefix
  * whose flow is strictly below the current k-th best is pruned, as the paper
  * replaces φ by `f(G_I^k)`. A prefix whose flow ties the k-th best is kept,
  * since the tie-break may still prefer its instances.
  */
object TopKEnumerator {

  /** Top-k's one total order, best first: flow descending, then the edge-sets'
    * timestamps (`tStart` first).
    */
  private[core] val order: Ordering[LocalInstance] = bestFirst[LocalInstance](_.flow)(Ordering.by(_.key))

  /** [[order]] across matches: the vertices break flow ties first, so inside one match the two agree. */
  private[core] val rowOrder: Ordering[InstanceRow] =
    bestFirst[InstanceRow](_.flow)(Ordering.by(r => (r.vs, r.sets.map(_.map(_.t)))))

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
    search(new Best(k, order))(_.flow)(seriesIn, delta)(identity).sorted
  }

  /** One match into `best`, which may hold other matches' items: a prefix is admitted until `best` is full, then
    * while its flow ties or beats the k-th best's. Each instance is offered as `item(instance)`, built only then. */
  private[core] def search[A](best: Best[A])(flow: A => Double)(series: IndexedSeq[IndexedSeq[TF]], delta: Long)(
      item: LocalInstance => A): Best[A] = {
    LocalEnumerator.search(series, delta)(f => !best.full || f >= flow(best.worst))(i => best.offer(item(i)))
    best
  }

  /** The up-to-k best items offered under `ord`, the one selection of the
    * kernel, the task and the merge. It holds no more than it was offered, so
    * a large k allocates nothing up front.
    */
  private[core] final class Best[A](k: Int, ord: Ordering[A]) extends Serializable {
    private val heap = mutable.PriorityQueue.empty(ord) // head: the worst of the k kept
    def full: Boolean = heap.size >= k
    def worst: A = heap.head // the k-th best once full
    def offer(a: A): this.type = {
      if (heap.size < k) heap.enqueue(a) else if (ord.lt(a, heap.head)) { heap.dequeue(); heap.enqueue(a) }
      this
    }
    def offerAll(as: IterableOnce[A]): this.type = { as.iterator.foreach(offer); this }
    def sorted: Vector[A] = heap.toVector.sorted(ord) // best first
  }

  /** The one check on k, made by the kernel and, before any Spark job, by
    * [[TopKSearch.topK]].
    */
  def requireK(k: Int): Unit = require(k >= 1, s"k must be >= 1, got $k")
}
