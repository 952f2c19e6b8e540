package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Dataset statistics of the paper's Table 3. */
object NetworkStats {

  final case class Stats(nodes: Long, connectedPairs: Long, edges: Long, avgFlow: Double)

  /** (#nodes, #connected node pairs = |E_T|, #edges, average flow per edge). */
  def stats(edges: DataFrame): Stats = {
    val nodes = edges.select(col("src").as("v"))
      .unionByName(edges.select(col("dst").as("v")))
      .distinct().count()
    val row = edges.agg(
      count(lit(1)).as("edges"),
      avg(col("f")).as("avgFlow")
    ).head()
    val pairs = edges.select(col("src"), col("dst")).distinct().count()
    Stats(nodes, pairs, row.getLong(0), row.getDouble(1))
  }
}
