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

  /** Top-k's one total order, best first: flow descending, then the vertices,
    * then the edge-sets' timestamps (`tStart` first). A kernel's rows share
    * their (empty) vertices, so inside one match the timestamps break ties.
    */
  private[core] val rowOrder: Ordering[InstanceRow] =
    Ordering.by((_: InstanceRow).flow)(Ordering.Double.TotalOrdering.reverse).orElseBy(r => (r.vs, r.key))

  /** The up-to-k best maximal instances under [[rowOrder]], best first. */
  def topK(
      series: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      k: Int
  ): Vector[InstanceRow] = {
    requireK(k)
    search(new Best(k))(series, delta)(identity).sorted
  }

  /** One match into `best`, which may hold other matches' rows: a prefix is admitted until `best` is full, then
    * while its flow ties or beats the k-th best's. Each instance is offered as `row(instance)`, built only then. */
  private[core] def search(best: Best)(series: IndexedSeq[IndexedSeq[TF]], delta: Long)(
      row: InstanceRow => InstanceRow): Best = {
    LocalEnumerator.search(series, delta)(f => !best.full || f >= best.worst.flow)(r => best.offer(row(r)))
    best
  }

  /** The up-to-k best rows offered under [[rowOrder]], the one selection of
    * the kernel, the task and the merge. It holds no more than it was offered,
    * so a large k allocates nothing up front.
    */
  private[core] final class Best(k: Int) extends Serializable {
    private val heap = mutable.PriorityQueue.empty(rowOrder) // head: the worst of the k kept
    def full: Boolean = heap.size >= k
    def worst: InstanceRow = heap.head // the k-th best once full
    def offer(r: InstanceRow): this.type = {
      if (heap.size < k) heap.enqueue(r) else if (rowOrder.lt(r, heap.head)) { heap.dequeue(); heap.enqueue(r) }
      this
    }
    def offerAll(rs: IterableOnce[InstanceRow]): this.type = { rs.iterator.foreach(offer); this }
    def sorted: Vector[InstanceRow] = heap.toVector.sorted(rowOrder) // best first
  }

  /** The one check on k, made by the kernel and, before any Spark job, by
    * [[TopKSearch.topK]].
    */
  def requireK(k: Int): Unit = require(k >= 1, s"k must be >= 1, got $k")
}
