package repro.data

import org.apache.spark.sql.DataFrame
import repro.core.{FlowMotifSearch, Index}

/** Dataset statistics of the paper's Table 3. */
object NetworkStats {

  final case class Stats(nodes: Long, connectedPairs: Long, edges: Long, avgFlow: Double)

  /** (#nodes, #connected node pairs = |E_T|, #edges, average flow per edge),
    * from the search's checked collect: `|E_T|` is the number of pairs in its
    * `G_T` index, so self-loops are not counted. Empty input gives zero counts
    * and a NaN average.
    */
  def stats(edges: DataFrame): Stats = {
    val rows = FlowMotifSearch.checkedRows(edges)
    val nodes = rows.iterator.flatMap(r => Iterator(r.getLong(0), r.getLong(1))).toSet.size
    Stats(nodes, Index(rows).pairs, rows.length, rows.iterator.map(_.getDouble(3)).sum / rows.length)
  }
}
