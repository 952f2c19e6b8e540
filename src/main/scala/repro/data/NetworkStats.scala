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
    val e = FlowMotifSearch.checkedEdges(edges)
    val ends = Array.concat(e.src, e.dst).sorted
    val nodes = java.util.stream.IntStream.range(0, ends.length).filter(i => i == 0 || ends(i) != ends(i - 1)).count()
    Stats(nodes, Index(e).pairs, e.length, e.f.sum / e.length)
  }
}
