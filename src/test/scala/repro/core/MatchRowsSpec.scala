package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

/** Phase P1 as the search runs it: every [[MatchRow]] of
  * [[FlowMotifSearch.matchRows]] against ground truth — the per-pair series
  * built from the edge list, the vertex bijection, the brute-force match set,
  * and DuckDB running [[Oracle.countSql]].
  */
class MatchRowsSpec extends SparkSpec {

  private def rowsOf(edges: Seq[TestGraphs.Edge], motif: Motif): Array[MatchRow] =
    FlowMotifSearch.matchRows(spark, TestGraphs.toDf(spark, edges), motif).collect()

  /** `R(u, v)` by definition: the pair's interactions sorted by timestamp. */
  private def seriesByPair(edges: Seq[TestGraphs.Edge]): Map[(Long, Long), Seq[TF]] =
    edges.filter(e => e.src != e.dst).groupBy(e => (e.src, e.dst))
      .map { case (pair, es) => pair -> es.sortBy(_.t).map(e => TF(e.t, e.f)) }

  for (motif <- MotifCatalog.all; seed <- Seq(400L, 401L)) {
    test(s"${motif.name}: every match row carries G_T's series on injective vertices (seed $seed)") {
      val edges = TestGraphs.randomEdges(nNodes = 7, nEdges = 45, horizon = 50, maxFlow = 5,
        seed = seed + motif.m * 10 + motif.numVertices)
      val gt = seriesByPair(edges)
      val rows = rowsOf(edges, motif)
      for (r <- rows) {
        assert(r.vs.length == motif.numVertices && r.series.length == motif.m)
        assert(r.vs.distinct.length == r.vs.length, s"vertices not distinct: ${r.vs}")
        for (i <- 0 until motif.m)
          assert(r.series(i) == gt((r.vs(motif.path(i)), r.vs(motif.path(i + 1)))),
            s"series($i) of ${r.vs} is not G_T's")
      }
      val vertexSets = rows.map(_.vs.toVector)
      assert(vertexSets.distinct.length == vertexSets.length, "a match was emitted twice")
      assert(vertexSets.toSet == BruteForce.structuralMatches(gt.keySet, motif))

      val df = TestGraphs.toDf(spark, edges)
      val got = FlowMotifSearch.matchRows(spark, df, motif).agg(count(lit(1)).as("n"))
      Oracle.assertEquivalent(got, Oracle.countSql(motif), "pairs" -> TimeSeriesGraph.pairs(df))
    }
  }

  test("every series is in TimeSeriesGraph.build's (t, f) order, duplicate timestamps included") {
    // Pairs carry repeated timestamps with distinct flows, fed in descending-flow order.
    val edges = for {
      (s, d) <- Vector((1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L))
      t <- Seq(9L, 4L)
      f <- Seq(3.0, 2.0, 1.0)
    } yield TestGraphs.Edge(s, d, t + s, f * d)
    val df = spark.createDataFrame(spark.sparkContext.parallelize(edges, 3))
    val gt = TimeSeriesGraph.build(df).collect().map { r =>
      (r.getLong(0), r.getLong(1)) -> r.getSeq[org.apache.spark.sql.Row](2).map(e => TF(e.getLong(0), e.getDouble(1)))
    }.toMap
    for (motif <- Seq(MotifCatalog.M32, MotifCatalog.M33)) {
      val rows = FlowMotifSearch.matchRows(spark, df, motif).collect()
      assert(rows.nonEmpty, s"${motif.name}: fixture should have matches")
      for (r <- rows; i <- 0 until motif.m)
        assert(r.series(i) == gt((r.vs(motif.path(i)), r.vs(motif.path(i + 1)))),
          s"${motif.name}: series($i) of ${r.vs} is not in build's order")
    }
  }

  test("empty input has no match rows") {
    for (motif <- MotifCatalog.all) assert(rowsOf(Vector.empty, motif).isEmpty)
  }

  test("input with only self-loops has no match rows and no instances") {
    val loops = Vector(TestGraphs.Edge(1, 1, 1, 2.0), TestGraphs.Edge(2, 2, 2, 3.0),
      TestGraphs.Edge(1, 1, 3, 4.0))
    for (motif <- MotifCatalog.all) assert(rowsOf(loops, motif).isEmpty)
    assert(FlowMotifSearch.countInstances(spark, TestGraphs.toDf(spark, loops),
      MotifCatalog.M32, 10, 0.0) == 0)
  }

  test("a walk that reaches a vertex with no out-edges stops there") {
    // 9 and 6 are sinks: 7→8→9 is the only 2-edge chain; 5→6 starts nothing longer.
    val g = Vector(TestGraphs.Edge(7, 8, 1, 1.0), TestGraphs.Edge(8, 9, 2, 2.0),
      TestGraphs.Edge(8, 9, 4, 3.0), TestGraphs.Edge(5, 6, 3, 1.0))
    val rows = rowsOf(g, MotifCatalog.M32)
    assert(rows.map(_.vs).toSeq == Seq(Seq(7L, 8L, 9L)))
    assert(rows.head.series == Seq(Seq(TF(1, 1.0)), Seq(TF(2, 2.0), TF(4, 3.0))))
    assert(rowsOf(g, MotifCatalog.M43).isEmpty)
    assert(rowsOf(g, MotifCatalog.M33).isEmpty)
  }
}
