package repro.data

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import repro.SparkSpec

/** Table 3's statistics: `|E_T|` counts the pairs of `G_T`, and the input is
  * checked like every search's.
  */
class NetworkStatsSpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("src", LongType), StructField("dst", LongType),
    StructField("t", LongType), StructField("f", DoubleType)))

  private def edges(rows: Row*): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)

  test("a self-loop row is not counted in connectedPairs") {
    val s = NetworkStats.stats(edges(Row(1L, 2L, 5L, 1.0), Row(1L, 2L, 7L, 2.0), Row(3L, 3L, 6L, 3.0)))
    assert(s == NetworkStats.Stats(nodes = 3, connectedPairs = 1, edges = 3, avgFlow = 2.0))
  }

  test("empty input gives zero counts and a NaN average") {
    val s = NetworkStats.stats(edges())
    assert((s.nodes, s.connectedPairs, s.edges) == (0L, 0L, 0L))
    assert(s.avgFlow.isNaN)
  }

  test("bad rows are rejected") {
    val good = Row(1L, 2L, 5L, 1.0)
    val cases = Seq(
      edges(good, Row(null, 2L, 5L, 1.0)) -> "column src must not be null",
      edges(good, Row(1L, 2L, 6L, -1.0)) -> "column f must be positive and finite, got f=-1.0",
      edges(good, Row(3L, 3L, null, 1.0)) -> "column t must not be null, got t=null on edge (3, 3)",
      edges(good).withColumn("src", col("src").cast("int")) -> "column src must be bigint, got int")
    for ((df, message) <- cases) {
      val e = intercept[IllegalArgumentException](NetworkStats.stats(df))
      assert(e.getMessage.contains(message), e.getMessage)
    }
  }
}
