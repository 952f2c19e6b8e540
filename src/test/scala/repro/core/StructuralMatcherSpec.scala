package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

/** Phase P1: structural matching via DataFrame joins, checked against the
  * brute-force matcher and against DuckDB running the equivalent SQL join.
  */
class StructuralMatcherSpec extends SparkSpec {

  private def pairsDf(edges: Seq[TestGraphs.Edge]) =
    TimeSeriesGraph.pairs(TestGraphs.toDf(spark, edges))

  private def collectMatches(edges: Seq[TestGraphs.Edge], motif: Motif): Set[Vector[Long]] =
    StructuralMatcher.matches(pairsDf(edges), motif)
      .collect()
      .map(r => (0 until motif.numVertices).map(r.getLong).toVector)
      .toSet

  // ------------------------------------------------ Figure 5/6 style fixtures

  /** Complete bidirectional triangle: both cyclic orientations x 3 rotations. */
  private val biTriangle = Vector(
    (1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L), (1L, 3L), (3L, 2L)
  ).zipWithIndex.map { case ((s, d), i) => TestGraphs.Edge(s, d, i * 10L, 1.0) }

  test("M(3,3) has six structural matches on a bidirectional triangle (Figure 6)") {
    assert(collectMatches(biTriangle, MotifCatalog.M33).size == 6)
  }

  test("M(3,2) on a simple chain graph finds exactly the chain") {
    val chain = Vector(TestGraphs.Edge(7, 8, 1, 1.0), TestGraphs.Edge(8, 9, 2, 1.0))
    assert(collectMatches(chain, MotifCatalog.M32) == Set(Vector(7L, 8L, 9L)))
  }

  test("M(3,3) requires the closing edge (chain alone has no cyclic match)") {
    val chain = Vector(TestGraphs.Edge(7, 8, 1, 1.0), TestGraphs.Edge(8, 9, 2, 1.0))
    assert(collectMatches(chain, MotifCatalog.M33).isEmpty)
  }

  test("vertex bijection: a 2-cycle cannot instantiate M(3,2)") {
    // 1->2->1 structurally walks the path but repeats a vertex.
    val twoCycle = Vector(TestGraphs.Edge(1, 2, 1, 1.0), TestGraphs.Edge(2, 1, 2, 1.0))
    assert(collectMatches(twoCycle, MotifCatalog.M32).isEmpty)
  }

  test("M(4,4)B matches a chain feeding a tail triangle") {
    // 0->1->2->3->1 on nodes 10,11,12,13
    val g = Vector(
      TestGraphs.Edge(10, 11, 1, 1.0), TestGraphs.Edge(11, 12, 2, 1.0),
      TestGraphs.Edge(12, 13, 3, 1.0), TestGraphs.Edge(13, 11, 4, 1.0)
    )
    assert(collectMatches(g, MotifCatalog.M44B) == Set(Vector(10L, 11L, 12L, 13L)))
    assert(collectMatches(g, MotifCatalog.M44A).isEmpty)
  }

  test("M(4,4)C matches a triangle with an exit edge") {
    // 0->1->2->0->3 on nodes 20,21,22,23
    val g = Vector(
      TestGraphs.Edge(20, 21, 1, 1.0), TestGraphs.Edge(21, 22, 2, 1.0),
      TestGraphs.Edge(22, 20, 3, 1.0), TestGraphs.Edge(20, 23, 4, 1.0)
    )
    assert(collectMatches(g, MotifCatalog.M44C) == Set(Vector(20L, 21L, 22L, 23L)))
  }

  test("M(5,5)A matches a 5-cycle in both rotations only when edges exist") {
    val g = (0 until 5).map(i => TestGraphs.Edge(30L + i, 30L + ((i + 1) % 5), i + 1L, 1.0))
    val got = collectMatches(g, MotifCatalog.M55A)
    // 5 rotations of the single directed 5-cycle.
    assert(got.size == 5)
    assert(got.contains(Vector(30L, 31L, 32L, 33L, 34L)))
  }

  // ------------------------------------------------ brute-force equivalence

  for (motif <- MotifCatalog.all) {
    test(s"${motif.name}: Spark matcher == brute-force matcher on a random graph") {
      val edges = TestGraphs.randomEdges(nNodes = 7, nEdges = 40, horizon = 50, maxFlow = 5,
        seed = 100 + motif.m)
      val pairs = edges.map(e => (e.src, e.dst)).toSet
      assert(collectMatches(edges, motif) == BruteForce.structuralMatches(pairs, motif))
    }
  }

  // ------------------------------------------------------- DuckDB oracle

  for (motif <- MotifCatalog.all) {
    test(s"${motif.name}: match count == DuckDB running the equivalent join SQL (oracle)") {
      val edges = TestGraphs.randomEdges(nNodes = 6, nEdges = 35, horizon = 50, maxFlow = 5,
        seed = 200 + motif.m)
      val pairs = pairsDf(edges)
      val got = StructuralMatcher.matches(pairs, motif).agg(count(lit(1)).as("n"))
      Oracle.assertEquivalent(got, Oracle.countSql(motif), "pairs" -> pairs)
    }
  }

  test("matches on an empty graph are empty") {
    val empty = pairsDf(Vector.empty)
    assert(StructuralMatcher.matches(empty, MotifCatalog.M32).count() == 0)
  }
}
