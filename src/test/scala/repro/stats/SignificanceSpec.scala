package repro.stats

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestGraphs}
import repro.core.{FlowMotifSearch, MotifCatalog}
import repro.data.{InteractionGen, ReferenceRandomizer}

/** z-score machinery and the Section 6.3 claim: flow-correlated (planted)
  * networks have far more φ-qualifying instances than flow-permuted ones.
  */
class SignificanceSpec extends SparkSpec {

  test("zScore arithmetic matches the paper's formula") {
    val (mu, sd, z) = Significance.zScore(real = 120, randomCounts = Seq(10, 20, 30))
    assert(mu == 20.0)
    assert(math.abs(sd - math.sqrt(200.0 / 3)) < 1e-9)
    assert(math.abs(z - (100.0 / math.sqrt(200.0 / 3))) < 1e-9)
  }

  test("zero variance with equal real count gives z = 0") {
    val (_, sd, z) = Significance.zScore(5, Seq(5, 5, 5))
    assert(sd == 0.0 && z == 0.0)
  }

  test("zero variance with larger real count gives z = +inf") {
    val (_, _, z) = Significance.zScore(9, Seq(5, 5, 5))
    assert(z.isPosInfinity)
  }

  test("stdDev is the population standard deviation") {
    assert(Significance.stdDev(Seq(2, 4, 4, 4, 5, 5, 7, 9)) == 2.0)
  }

  test("planted flow correlation is significant: real count exceeds all permuted counts") {
    val edges = InteractionGen.bitcoinLike(spark, sf = 0.01).cache()
    val s = Significance.study(spark, edges, MotifCatalog.M32,
      delta = 600, phi = 5.0, nRandom = 3, seed = 99)
    assert(s.real > 0)
    assert(s.randomCounts.forall(_ < s.real),
      s"real=${s.real} random=${s.randomCounts} — flow shuffling should destroy planted flows")
    assert(s.z > 0 || s.z.isPosInfinity)
    assert(s.empiricalP == 0.0)
  }

  test("study is reproducible for a fixed seed") {
    val edges = TestGraphs.toDf(spark, TestGraphs.randomEdges(5, 60, 80, 9, seed = 71)).cache()
    val a = Significance.study(spark, edges, MotifCatalog.M32, 15, 3.0, nRandom = 2, seed = 5)
    val b = Significance.study(spark, edges, MotifCatalog.M32, 15, 3.0, nRandom = 2, seed = 5)
    assert(a == b)
  }

  test("study is the per-graph search: real = countInstances, random r = countInstances on permutation seed + r") {
    val edges = spark.createDataFrame(spark.sparkContext.parallelize(TestGraphs.randomEdges(6, 150, 100, 9, seed = 72), 3))
    for (motif <- Seq(MotifCatalog.M32, MotifCatalog.M33, MotifCatalog.M43); seed <- Seq(5L, 1234L)) {
      def count(df: DataFrame) = FlowMotifSearch.countInstances(spark, df, motif, 15, 6.0)
      val s = Significance.study(spark, edges, motif, 15, 6.0, nRandom = 3, seed = seed)
      val expected = (0 until 3).map(r => count(ReferenceRandomizer.permuteFlows(edges, seed + r)))
      assert(s.real == count(edges) && s.real > 0, s"${motif.name} seed $seed")
      assert(s.randomCounts == expected, s"${motif.name} seed $seed: ${s.randomCounts} vs $expected")
    }
  }
}
