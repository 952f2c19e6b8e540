package repro.data

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.rand
import repro.core.{FlowMotifSearch, Interactions}

/** Randomization for the significance study (Section 6.3): keep the graph
  * structure and every timestamp fixed, and re-assign the multiset of flow
  * values onto the edges by a random permutation π. The randomized graph has
  * the same structural matches and the same δ-windows; only the flow values —
  * and hence the φ-qualifying instances — change.
  */
object Randomizer {

  /** Permute the `f` column across all interaction rows: the interactions of
    * [[flowVectors]]`(edges, seed, 1)` with flow vector 1.
    */
  def permuteFlows(edges: DataFrame, seed: Long): DataFrame = {
    val (e, flows) = flowVectors(edges, seed, 1)
    val permuted = (0 until e.length).map(i => Row(e.src(i), e.dst(i), e.t(i), flows(1)(i)))
    edges.sparkSession.createDataFrame(permuted.asJava, edges.select("src", "dst", "t", "f").schema)
  }

  /** The checked interactions of `edges` ([[FlowMotifSearch.checkedEdges]])
    * and, drawn on the driver, flow vector 0 (each interaction's own flow) and
    * vector r + 1 (its flow under permutation `seed + r`). Permutation `s`
    * gives the interaction of rank i by `(rand(s), src, dst, t)` the flow of
    * rank i by `(rand(s + 1), f)`. Spark seeds `rand(s)` with
    * `s + partitionIndex` in the input's own partitions, so the permutation
    * depends on how `edges` is partitioned.
    */
  private[repro] def flowVectors(edges: DataFrame, seed: Long, n: Int): (Interactions, IndexedSeq[Array[Double]]) = {
    val e = FlowMotifSearch.checkedEdges(edges, (0 to n).map(r => rand(seed + r)): _*)
    def rank(x: Array[Double], ties: (Int, Int) => Int) = Interactions.argsort(Array.range(0, e.length + 1))(
      (a, b) => if (x(a) != x(b)) java.lang.Double.compare(x(a), x(b)) else ties(a, b))
    val permuted = (0 until n).map { r =>
      val byRow = rank(e.extra(r), e.compare)
      val byFlow = rank(e.extra(r + 1), (a, b) => java.lang.Double.compare(e.f(a), e.f(b)))
      val f = new Array[Double](e.length)
      for (i <- 0 until e.length) f(byRow(i)) = e.f(byFlow(i))
      f
    }
    (e, e.f +: permuted)
  }
}
