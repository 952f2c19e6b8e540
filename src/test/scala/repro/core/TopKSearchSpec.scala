package repro.core

import org.scalacheck.{Gen, Prop, Test}
import repro.{SparkSpec, TestGraphs}
import repro.data.InteractionGen

/** Distributed top-k and the DP top-1 (Section 5) against the exhaustive
  * two-phase search.
  */
class TopKSearchSpec extends SparkSpec {

  private def graph(seed: Int) =
    TestGraphs.toDf(spark, TestGraphs.randomEdges(5, 60, 60, 9, seed = seed))

  test("global top-k flows == k best flows of the full enumeration") {
    val df = graph(51)
    val all = FlowMotifSearch.instances(spark, df, MotifCatalog.M32, 15, 0.0)
      .collect().map(_.flow).sorted(Ordering[Double].reverse)
    for (k <- Seq(1, 3, 10)) {
      val topk = TopKSearch.topK(spark, df, MotifCatalog.M32, 15, k).map(_.flow)
      assert(topk == all.take(k).toSeq, s"k=$k")
    }
    // Whole rows, ties included: on small flows many instances tie, and the cyclic motif closes its walk.
    for ((seed, maxFlow) <- Seq(51 -> 9, 56 -> 3, 57 -> 2); m <- Seq(MotifCatalog.M32, MotifCatalog.M33)) {
      val edges = TestGraphs.randomEdges(5, 80, 60, maxFlow, seed)
      for (p <- Seq(1, 4)) {
        val df = spark.createDataFrame(spark.sparkContext.parallelize(edges, p))
        val all = FlowMotifSearch.instances(spark, df, m, 15, 0.0).collect().sorted(TopKEnumerator.rowOrder)
        assert(all.nonEmpty, s"seed=$seed ${m.name}: fixture should have instances")
        for (k <- Seq(1, 3, 10, 100))
          assert(TopKSearch.topK(spark, df, m, 15, k) == all.take(k).toSeq, s"seed=$seed ${m.name} p=$p k=$k")
      }
    }
  }

  test("a k far above the instance count returns every instance, best first") {
    val df = graph(51)
    val all = FlowMotifSearch.instances(spark, df, MotifCatalog.M32, 15, 0.0).collect()
    val top = TopKSearch.topK(spark, df, MotifCatalog.M32, 15, Int.MaxValue / 2 - 1)
    assert(top.length == all.length && top.toSet == all.toSet)
    assert(top.map(_.flow) == all.map(_.flow).sorted(Ordering[Double].reverse).toSeq)
  }

  test("top-k across structural matches picks the global best, not a per-match best") {
    // Two disjoint chains; the better one must win for k=1.
    val edges = Vector(
      TestGraphs.Edge(1, 2, 10, 3.0), TestGraphs.Edge(2, 3, 12, 3.0),
      TestGraphs.Edge(7, 8, 100, 50.0), TestGraphs.Edge(8, 9, 104, 60.0)
    )
    val top = TopKSearch.topK(spark, TestGraphs.toDf(spark, edges), MotifCatalog.M32, 10, 1)
    assert(top.map(_.vs.toVector) == Seq(Vector(7L, 8L, 9L)))
    assert(top.head.flow == 50.0)
  }

  test("tied top-k instances are the first k instances under the merge's order") {
    // Facebook-like sf 1, M(4,3), δ = 600: the five best instances all have flow 12.0.
    val df = InteractionGen.facebookLike(spark, 1.0).cache()
    val top = TopKSearch.topK(spark, df, MotifCatalog.M43, 600, 5)
    val all = FlowMotifSearch.instances(spark, df, MotifCatalog.M43, 600, 0.0).collect()
    assert(top.map(_.flow) == Seq.fill(5)(12.0))
    assert(top == all.sorted(TopKEnumerator.rowOrder).take(5).toSeq)
    df.unpersist()
  }

  test("the merge's selection does not depend on how its input is grouped") {
    // Rows that tie under the order are equal, so the k best are one answer.
    val row = for (flow <- Gen.choose(1, 3); v <- Gen.choose(0L, 3L); t <- Gen.choose(0L, 3L))
      yield InstanceRow(Seq(v, v + 1), flow.toDouble, t, t, Seq(Seq(TF(t, flow.toDouble))))
    val grouped = for (all <- Gen.listOf(row); n <- Gen.choose(1, 8); cuts <- Gen.listOfN(n - 1, Gen.choose(0, all.length)))
      yield (all, (0 +: cuts.sorted).zip(cuts.sorted :+ all.length).map { case (a, b) => all.slice(a, b) })
    val ord = TopKEnumerator.rowOrder
    def best(items: IterableOnce[InstanceRow], k: Int) = new TopKEnumerator.Best(k).offerAll(items).sorted
    val prop = Prop.forAll(grouped, Gen.choose(1, 10)) { case ((all, groups), k) =>
      best(groups.iterator.flatMap(g => best(g, k)), k) == all.sorted(ord).take(k)
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(result.passed, result.status)
  }

  test("DP max flow == top-1 flow from the heap-based search") {
    for (seed <- Seq(52, 53, 54)) {
      val df = graph(seed)
      val viaDP = TopKSearch.maxFlowDP(spark, df, MotifCatalog.M32, 15)
      val viaTopK = TopKSearch.topK(spark, df, MotifCatalog.M32, 15, 1)
        .headOption.map(_.flow).getOrElse(0.0)
      assert(math.abs(viaDP - viaTopK) < 1e-9, s"seed=$seed")
    }
  }

  test("DP max flow on a cyclic motif matches brute force") {
    val edges = TestGraphs.randomEdges(4, 50, 40, 9, seed = 55)
    val df = TestGraphs.toDf(spark, edges)
    val viaDP = TopKSearch.maxFlowDP(spark, df, MotifCatalog.M33, 12)
    val brute = TestGraphs.bruteForceAll(edges, MotifCatalog.M33, 12, 0.0)
    val bruteMax =
      if (brute.isEmpty) 0.0
      else {
        val pairs = edges.map(e => (e.src, e.dst)).toSet
        BruteForce.structuralMatches(pairs, MotifCatalog.M33).map { vs =>
          BruteForce.maxFlow(TestGraphs.seriesFor(edges, MotifCatalog.M33, vs), 12)
        }.max
      }
    assert(math.abs(viaDP - bruteMax) < 1e-9)
  }

  test("top-k on an empty graph is empty; DP max is 0") {
    val df = TestGraphs.toDf(spark, Vector.empty[TestGraphs.Edge])
    assert(TopKSearch.topK(spark, df, MotifCatalog.M32, 10, 5).isEmpty)
    assert(TopKSearch.maxFlowDP(spark, df, MotifCatalog.M32, 10) == 0.0)
  }
}
