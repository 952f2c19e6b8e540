package repro.data

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, TestGraphs}

/** Flow-permutation randomization (Section 6.3): structure and timestamps are
  * preserved exactly; the multiset of flows is preserved but re-assigned.
  */
class RandomizerSpec extends SparkSpec {

  private val edgeList = TestGraphs.randomEdges(6, 120, 100, 9, seed = 61)

  private lazy val edges = TestGraphs.toDf(spark, edgeList).cache()

  test("(src, dst, t) multiset is unchanged") {
    val perm = Randomizer.permuteFlows(edges, seed = 1)
    val a = edges.select("src", "dst", "t").collect().map(_.toString).sorted
    val b = perm.select("src", "dst", "t").collect().map(_.toString).sorted
    assert(a.toSeq == b.toSeq)
  }

  test("flow multiset is unchanged (oracle: total and per-value histogram)") {
    val perm = Randomizer.permuteFlows(edges, seed = 2)
    val got = perm.groupBy(col("f")).agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(got,
      "SELECT CAST(f AS DOUBLE) AS f, count(*) AS n FROM edges GROUP BY f",
      "edges" -> edges)
  }

  test("row count unchanged") {
    assert(Randomizer.permuteFlows(edges, 3).count() == edges.count())
  }

  test("the permutation actually moves flows (with overwhelming probability)") {
    val before = edges.orderBy("src", "dst", "t").select("f").collect().map(_.getDouble(0))
    val after = Randomizer.permuteFlows(edges, 4)
      .orderBy("src", "dst", "t").select("f").collect().map(_.getDouble(0))
    assert(before.toSeq != after.toSeq)
  }

  test("different seeds give different permutations") {
    val a = Randomizer.permuteFlows(edges, 5).orderBy("src", "dst", "t").select("f")
      .collect().map(_.getDouble(0))
    val b = Randomizer.permuteFlows(edges, 6).orderBy("src", "dst", "t").select("f")
      .collect().map(_.getDouble(0))
    assert(a.toSeq != b.toSeq)
  }

  test("structural matches are identical before and after permutation (paper's invariant)") {
    import repro.core.{MotifCatalog, StructuralMatcher, TimeSeriesGraph}
    val perm = Randomizer.permuteFlows(edges, 7)
    val a = StructuralMatcher.matches(TimeSeriesGraph.pairs(edges), MotifCatalog.M33).count()
    val b = StructuralMatcher.matches(TimeSeriesGraph.pairs(perm), MotifCatalog.M33).count()
    assert(a == b)
  }

  test("with φ=0, instance counts are identical on real and permuted graphs") {
    import repro.core.{FlowMotifSearch, MotifCatalog}
    val perm = Randomizer.permuteFlows(edges, 8)
    val a = FlowMotifSearch.countInstances(spark, edges, MotifCatalog.M32, 15, 0.0)
    val b = FlowMotifSearch.countInstances(spark, perm, MotifCatalog.M32, 15, 0.0)
    assert(a == b, "φ=0 instances depend only on structure+time, which are preserved")
  }

  for (partitions <- Seq(1, 4, 7); cached <- Seq(false, true); seed <- Seq(1L, 1234L)) {
    test(s"permuteFlows equals the window-join reference row for row " +
         s"($partitions input partitions, ${if (cached) "cached" else "uncached"}, seed $seed)") {
      // A parallelized collection gives every evaluation the same rows in the
      // same partitions, which `rand` needs to repeat itself uncached.
      val input = spark.createDataFrame(spark.sparkContext.parallelize(edgeList, partitions))
      if (cached) input.cache()
      try {
        def rows(df: DataFrame) = df.orderBy("src", "dst", "t", "f").collect().toSeq
        assert(rows(Randomizer.permuteFlows(input, seed)) == rows(ReferenceRandomizer.permuteFlows(input, seed)))
      } finally input.unpersist()
    }
  }

  test("permuteFlows checks every row, self-loops included, before permuting") {
    val schema = StructType(Seq("src", "dst", "t").map(StructField(_, LongType)) :+ StructField("f", DoubleType))
    val cases = Seq(
      Row(null, 2L, 5L, 1.0) -> "column src must not be null",
      Row(1L, 2L, null, 1.0) -> "column t must not be null, got t=null on edge (1, 2)",
      Row(1L, 2L, 5L, null) -> "column f must not be null, got f=null on edge (1, 2)",
      Row(3L, 3L, 5L, -1.0) -> "column f must be positive and finite, got f=-1.0",
      Row(1L, 2L, 5L, Double.NaN) -> "column f must be positive and finite, got f=NaN")
    for ((bad, message) <- cases) {
      val rows = edgeList.map(e => Row(e.src, e.dst, e.t, e.f)) :+ bad
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val e = intercept[IllegalArgumentException](Randomizer.permuteFlows(df, 1))
      assert(e.getMessage.contains(message), s"$bad: ${e.getMessage}")
    }
  }
}
