package repro.baseline

import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.core._

/** The join-based competitor must produce exactly the same maximal instances
  * as the two-phase algorithm (the paper uses it as an apples-to-apples
  * runtime baseline).
  */
class JoinBaselineSpec extends SparkSpec {

  private def planted(motif: Motif, t0: Long, f: Double): Vector[TestGraphs.Edge] =
    motif.edges.zipWithIndex.map { case ((a, b), i) =>
      TestGraphs.Edge(100L + a, 100L + b, t0 + i * 3L, f)
    }

  private def summarize(rows: Array[InstanceRow]): Seq[(String, Long, Long, Double)] =
    rows.map(r => (r.vs.mkString(","), r.tStart, r.tEnd, math.rint(r.flow * 1e6) / 1e6))
      .toSeq.sorted

  for (motif <- MotifCatalog.all) {
    test(s"${motif.name}: join baseline == two-phase algorithm") {
      val edges = TestGraphs.randomEdges(nNodes = 5, nEdges = 40, horizon = 40, maxFlow = 5,
        seed = 400 + motif.m * 3 + motif.numVertices) ++ planted(motif, 1000, 9.0)
      val df = TestGraphs.toDf(spark, edges)
      val delta = 12L
      val phi = 2.0
      val viaJoin = JoinBaseline.instances(spark, df, motif, delta, phi).collect()
      val viaTwoPhase = FlowMotifSearch.instances(spark, df, motif, delta, phi).collect()
      assert(summarize(viaJoin) == summarize(viaTwoPhase))
      assert(viaJoin.nonEmpty)
    }
  }

  test("quintuples enumerate every contiguous run within δ (oracle over SQL)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(5, 50, 60, 5, seed = 31))
    val delta = 15L
    val got = JoinBaseline.quintuples(spark, edges, delta, phi = 0.0)
      .toDF().agg(count(lit(1)).as("n"))
    // Runs = ordered pairs (a,b) of interactions on the same pair with
    // b.t - a.t <= δ (timestamps unique per pair in this fixture).
    Oracle.assertEquivalent(got,
      s"""SELECT count(*) AS n
         |FROM edges a JOIN edges b
         |  ON a.src = b.src AND a.dst = b.dst
         | AND CAST(a.t AS BIGINT) <= CAST(b.t AS BIGINT)
         | AND CAST(b.t AS BIGINT) - CAST(a.t AS BIGINT) <= $delta
         |WHERE a.src <> a.dst""".stripMargin,
      "edges" -> edges)
  }

  test("quintuple flows are the sum over the run (oracle over SQL)") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(4, 30, 40, 5, seed = 32))
    val delta = 10L
    val got = JoinBaseline.quintuples(spark, edges, delta, phi = 0.0).toDF()
      .select(col("src"), col("dst"), col("ts"), col("te"), round(col("f"), 6).as("f"))
    Oracle.assertEquivalent(got,
      s"""SELECT a.src AS src, a.dst AS dst,
         |       CAST(a.t AS BIGINT) AS ts, CAST(b.t AS BIGINT) AS te,
         |       round(sum(CAST(c.f AS DOUBLE)), 6) AS f
         |FROM edges a
         |JOIN edges b ON a.src = b.src AND a.dst = b.dst
         |JOIN edges c ON c.src = a.src AND c.dst = a.dst
         |WHERE a.src <> a.dst
         |  AND CAST(a.t AS BIGINT) <= CAST(b.t AS BIGINT)
         |  AND CAST(b.t AS BIGINT) - CAST(a.t AS BIGINT) <= $delta
         |  AND CAST(c.t AS BIGINT) BETWEEN CAST(a.t AS BIGINT) AND CAST(b.t AS BIGINT)
         |GROUP BY a.src, a.dst, a.t, b.t""".stripMargin,
      "edges" -> edges)
  }

  test("quintuple prev and next are the pair's nearest interactions outside the run (oracle over SQL)") {
    val ties = Vector(TestGraphs.Edge(1, 2, 7, 1.0), TestGraphs.Edge(1, 2, 7, 2.0), TestGraphs.Edge(1, 2, 9, 1.0))
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(4, 30, 40, 5, seed = 36) ++ ties)
    val q = JoinBaseline.quintuples(spark, edges, delta = 10, phi = 0.0).toDF()
    def nearest(agg: String, cmp: String, bound: String) =
      s"""(SELECT $agg(CAST(e.t AS BIGINT)) FROM edges e
         |  WHERE e.src = q.src AND e.dst = q.dst AND CAST(e.t AS BIGINT) $cmp CAST(q.$bound AS BIGINT))""".stripMargin
    Oracle.assertEquivalent(q.select("src", "dst", "ts", "te", "prev", "next"),
      s"""SELECT CAST(q.src AS BIGINT) AS src, CAST(q.dst AS BIGINT) AS dst,
         |       CAST(q.ts AS BIGINT) AS ts, CAST(q.te AS BIGINT) AS te,
         |       ${nearest("max", "<", "ts")} AS prev, ${nearest("min", ">", "te")} AS next
         |FROM q""".stripMargin,
      "edges" -> edges, "q" -> q.select("src", "dst", "ts", "te"))
    // The fixture's tie at t = 7 is some run's prev.
    assert(q.where(col("src") === 1 && col("dst") === 2 && col("ts") === 9 && col("prev") === 7).count() > 0)
  }

  test("quintuples respect the φ filter") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(4, 30, 40, 5, seed = 33))
    val all = JoinBaseline.quintuples(spark, edges, 10, phi = 0.0).collect()
    val filtered = JoinBaseline.quintuples(spark, edges, 10, phi = 6.0).collect()
    assert(filtered.toSet == all.filter(_.f >= 6.0).toSet)
  }

  test("baseline count helper matches instances().count") {
    val edges = TestGraphs.toDf(spark,
      TestGraphs.randomEdges(4, 30, 40, 5, seed = 34) ++ planted(MotifCatalog.M32, 500, 9.0))
    assert(JoinBaseline.count(spark, edges, MotifCatalog.M32, 12, 1.0) ==
      JoinBaseline.instances(spark, edges, MotifCatalog.M32, 12, 1.0).count())
  }

  test("baseline handles timestamp ties without splitting them (bucketed input)") {
    // Two interactions at the same t on the same pair must always travel together.
    val edges = TestGraphs.toDf(spark, Vector(
      TestGraphs.Edge(1, 2, 10, 2.0), TestGraphs.Edge(1, 2, 10, 3.0),
      TestGraphs.Edge(2, 3, 20, 4.0)
    ))
    val viaJoin = JoinBaseline.instances(spark, edges, MotifCatalog.M32, 15, 0.0).collect()
    val viaTwoPhase = FlowMotifSearch.instances(spark, edges, MotifCatalog.M32, 15, 0.0).collect()
    assert(summarize(viaJoin) == summarize(viaTwoPhase))
    assert(viaJoin.length == 1)
    assert(viaJoin.head.flow == 4.0) // min(2+3, 4)
  }

  test("the optimized plan joins the quintuples m - 1 times and aggregates nothing") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(4, 30, 40, 5, seed = 35))
    for (motif <- MotifCatalog.all) {
      val plan = JoinBaseline.instances(spark, edges, motif, 12, 1.0).queryExecution.optimizedPlan
      val joins = plan.collect { case j: Join => j }.length
      val aggregates = plan.collect { case a: Aggregate => a }.length
      assert((joins, aggregates) == (motif.m - 1, 0), motif.name)
    }
  }
}
