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

  private def edges(rows: Row*): DataFrame = edges(rows, 2)

  private def edges(rows: Seq[Row], partitions: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, partitions), schema)

  test("a self-loop row is not counted in connectedPairs") {
    val s = NetworkStats.stats(edges(Row(1L, 2L, 5L, 1.0), Row(1L, 2L, 7L, 2.0), Row(3L, 3L, 6L, 3.0)))
    assert(s == NetworkStats.Stats(nodes = 3, connectedPairs = 1, edges = 3, avgFlow = 2.0))
  }

  test("empty input gives zero counts and a NaN average") {
    val s = NetworkStats.stats(edges())
    assert((s.nodes, s.connectedPairs, s.edges) == (0L, 0L, 0L))
    assert(s.avgFlow.isNaN)
  }

  test("stats do not depend on input partitioning or order, avgFlow to the bit") {
    val rnd = new scala.util.Random(12)
    val rows = Vector.fill(3000)(Row(rnd.nextInt(60).toLong, rnd.nextInt(60).toLong, rnd.nextInt(400).toLong,
      0.01 + 100 * rnd.nextDouble())) // repeated (src, dst, t) and self-loops included
    val shuffled = new scala.util.Random(13).shuffle(rows)
    def flowSum(rs: Seq[Row]) = rs.map(_.getDouble(3)).sum
    assert(flowSum(rows) != flowSum(shuffled), "fixture: a sum in input order should differ by order")
    val expected = NetworkStats.stats(edges(rows, 1))
    for (rs <- Seq(rows, shuffled); p <- Seq(1, 4, 7)) {
      val s = NetworkStats.stats(edges(rs, p))
      assert(s == expected, s"$p partitions")
      assert(java.lang.Double.doubleToRawLongBits(s.avgFlow) == java.lang.Double.doubleToRawLongBits(expected.avgFlow))
    }
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
