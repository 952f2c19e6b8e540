package repro.core

import repro.{SparkSpec, TestGraphs}

/** End-to-end two-phase search (P1 + P2 on Spark) against full brute force
  * (brute structural matching x brute maximal enumeration) on small graphs.
  */
class FlowMotifSearchSpec extends SparkSpec {

  /** Interactions realizing one guaranteed instance of `motif` on fresh nodes
    * 100,101,... starting at time `t0`, one interaction per motif edge.
    */
  private def planted(motif: Motif, t0: Long, f: Double): Vector[TestGraphs.Edge] =
    motif.edges.zipWithIndex.map { case ((a, b), i) =>
      TestGraphs.Edge(100L + a, 100L + b, t0 + i * 3L, f)
    }

  private def collectInstances(
      edges: Seq[TestGraphs.Edge], motif: Motif, delta: Long, phi: Double
  ): Set[(Vector[Long], Vector[Vector[Long]])] =
    FlowMotifSearch.instances(spark, TestGraphs.toDf(spark, edges), motif, delta, phi)
      .collect()
      .map(r => (r.vs.toVector, r.sets.map(_.map(_.t).toVector).toVector))
      .toSet

  for (motif <- MotifCatalog.all) {
    test(s"${motif.name}: Spark two-phase == brute force (random graph + planted instance)") {
      val edges = TestGraphs.randomEdges(nNodes = 5, nEdges = 45, horizon = 40, maxFlow = 5,
        seed = 300 + motif.m * 7 + motif.numVertices) ++ planted(motif, 1000, 9.0)
      val delta = 12L
      val phi = 2.0
      val got = collectInstances(edges, motif, delta, phi)
      val expected = TestGraphs.bruteForceAll(edges, motif, delta, phi)
      assert(got == expected, s"two-phase != brute force for ${motif.name}")
      assert(got.nonEmpty, "planted instance should guarantee at least one result")
    }
  }

  test("countInstances agrees with materialized instances") {
    val edges = TestGraphs.randomEdges(4, 40, 40, 5, seed = 17) ++ planted(MotifCatalog.M33, 500, 9.0)
    val df = TestGraphs.toDf(spark, edges)
    val n = FlowMotifSearch.countInstances(spark, df, MotifCatalog.M33, 12, 1.0)
    assert(n == FlowMotifSearch.instances(spark, df, MotifCatalog.M33, 12, 1.0).count())
  }

  test("instance flows reported by Spark equal Equation 1 recomputed from the sets") {
    val edges = TestGraphs.randomEdges(4, 40, 40, 5, seed = 18)
    val rows = FlowMotifSearch.instances(spark, TestGraphs.toDf(spark, edges),
      MotifCatalog.M32, 12, 0.0).collect()
    rows.foreach { r =>
      val recomputed = r.sets.map(_.map(_.f).sum).min
      assert(math.abs(r.flow - recomputed) < 1e-9)
    }
  }

  test("instances grow (weakly) with δ") {
    val edges = TestGraphs.randomEdges(4, 60, 60, 5, seed = 19)
    val df = TestGraphs.toDf(spark, edges)
    val n1 = FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 5, 0.0)
    val n2 = FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 20, 0.0)
    // Larger δ never yields fewer *windows* of opportunity; counts of maximal
    // instances are not strictly monotone in theory, but on this fixture the
    // growth expected by Figure 9 is clear-cut.
    assert(n2 >= n1)
    assert(n2 > 0)
  }

  test("instances shrink (weakly) with φ, to zero at absurd φ (Figure 10)") {
    val edges = TestGraphs.randomEdges(4, 60, 60, 5, seed = 20)
    val df = TestGraphs.toDf(spark, edges)
    val counts = Seq(0.0, 3.0, 8.0, 1e6).map(phi =>
      FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 15, phi))
    assert(counts == counts.sorted(Ordering[Long].reverse))
    assert(counts.last == 0)
  }

  test("searching an empty graph returns nothing") {
    val df = TestGraphs.toDf(spark, Vector.empty[TestGraphs.Edge])
    assert(FlowMotifSearch.countInstances(spark, df, MotifCatalog.M32, 10, 0.0) == 0)
  }
}
