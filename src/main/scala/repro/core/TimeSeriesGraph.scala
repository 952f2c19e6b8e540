package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Construction of the time-series graph `G_T(V, E_T)` (Section 4, Figure 5):
  * the input multigraph's parallel edges between a pair of vertices are merged
  * into one edge carrying the interaction time series `R(u, v)`.
  * No library code path runs `build`: every search, the study, the join
  * baseline and the network statistics read [[Index]], and
  * `build` stays as the tests' reference `G_T`.
  *
  * Input edge schema everywhere in this repo:
  * `src: long, dst: long, t: long, f: double` — one row per interaction.
  */
object TimeSeriesGraph {

  /** `(src, dst, series: array<struct<t, f>>)`, series sorted by timestamp.
    * Self-loop interactions are dropped: motif vertices are distinct, so no
    * motif edge can ever be instantiated by a self-loop.
    */
  def build(edges: DataFrame): DataFrame =
    edges
      .where(col("src") =!= col("dst"))
      .groupBy(col("src"), col("dst"))
      .agg(sort_array(collect_list(struct(col("t"), col("f")))).as("series"))

  /** The distinct connected node pairs — the edge set `E_T` of `G_T`. */
  def pairs(edges: DataFrame): DataFrame =
    edges.where(col("src") =!= col("dst")).select(col("src"), col("dst")).distinct()
}
