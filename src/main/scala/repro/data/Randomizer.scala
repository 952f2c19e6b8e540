package repro.data

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.rand
import repro.core.FlowMotifSearch

/** Randomization for the significance study (Section 6.3): keep the graph
  * structure and every timestamp fixed, and re-assign the multiset of flow
  * values onto the edges by a random permutation π. The randomized graph has
  * the same structural matches and the same δ-windows; only the flow values —
  * and hence the φ-qualifying instances — change.
  */
object Randomizer {

  /** Permute the `f` column across all interaction rows: the rows of
    * [[flowVectors]]`(edges, seed, 1)` with flow vector 1.
    */
  def permuteFlows(edges: DataFrame, seed: Long): DataFrame = {
    val (rows, flows) = flowVectors(edges, seed, 1)
    val permuted = rows.indices.map(i => Row(rows(i).get(0), rows(i).get(1), rows(i).get(2), flows(1)(i)))
    edges.sparkSession.createDataFrame(permuted.asJava, edges.select("src", "dst", "t", "f").schema)
  }

  /** The checked rows of `edges` ([[FlowMotifSearch.checkedRows]]) and, drawn
    * on the driver, flow vector 0 (each row's own flow) and vector r + 1 (its
    * flow under permutation `seed + r`). Permutation `s` gives the row of rank
    * i by `(rand(s), src, dst, t)` the flow of rank i by `(rand(s + 1), f)`.
    * Spark seeds `rand(s)` with `s + partitionIndex`, so the permutation
    * depends on how `edges` is partitioned.
    */
  private[repro] def flowVectors(edges: DataFrame, seed: Long, n: Int): (Array[Row], IndexedSeq[Array[Double]]) = {
    import Ordering.Double.TotalOrdering
    val rows = FlowMotifSearch.checkedRows(edges, (0 to n).map(r => rand(seed + r)): _*)
    def ranked[K: Ordering](key: Row => K): Array[Int] =
      rows.indices.map(i => (key(rows(i)), i)).sortBy(_._1).map(_._2).toArray
    val own = rows.map(_.getDouble(3))
    val permuted = (0 until n).map { r =>
      val byRow = ranked(x => (x.getDouble(4 + r), x.getLong(0), x.getLong(1), x.getLong(2)))
      val byFlow = ranked(x => (x.getDouble(5 + r), x.getDouble(3)))
      val f = new Array[Double](rows.length)
      for (i <- rows.indices) f(byRow(i)) = own(byFlow(i))
      f
    }
    (rows, own +: permuted)
  }
}
