package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}
import repro.core.{FlowMotifSearch, MotifCatalog}

/** Synthetic interaction networks (DESIGN.md §4 substitutions). Generated at
  * tiny scale factors here; bench scale is exercised by `bench/`.
  */
class InteractionGenSpec extends SparkSpec {

  private val sf = 0.02

  private lazy val btc = InteractionGen.bitcoinLike(spark, sf).cache()
  private lazy val fb  = InteractionGen.facebookLike(spark, sf).cache()
  private lazy val pax = InteractionGen.generate(spark, InteractionGen.passengerConfig(sf)).cache()

  test("generators are deterministic in (config, seed)") {
    val a = InteractionGen.bitcoinLike(spark, sf).orderBy("src", "dst", "t", "f").collect()
    val b = InteractionGen.bitcoinLike(spark, sf).orderBy("src", "dst", "t", "f").collect()
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds change the data") {
    val a = InteractionGen.bitcoinLike(spark, sf, seed = 1).orderBy("src", "dst", "t", "f").collect()
    val b = InteractionGen.bitcoinLike(spark, sf, seed = 2).orderBy("src", "dst", "t", "f").collect()
    assert(a.toSeq != b.toSeq)
  }

  for ((name, df) <- Seq(("bitcoin-like", () => btc), ("facebook-like", () => fb),
                         ("passenger-like", () => pax))) {
    test(s"$name: schema and value domains (positive flows, t within horizon, no self loops)") {
      val d = df()
      assert(d.columns.toSeq == Seq("src", "dst", "t", "f"))
      assert(d.where(col("f") <= 0).count() == 0, "flows must be positive")
      assert(d.where(col("t") < 0).count() == 0, "timestamps must be non-negative")
      assert(d.where(col("src") === col("dst")).count() == 0, "no self loops")
      assert(d.count() > 80)
    }
  }

  test("facebook-like timestamps are 30-second bucketed") {
    assert(fb.where(pmod(col("t"), lit(30)) =!= 0).count() == 0)
  }

  test("facebook-like pairs carry multiple interactions on average (paper: ~3-4)") {
    val stats = NetworkStats.stats(fb)
    val perPair = stats.edges.toDouble / stats.connectedPairs
    assert(perPair > 1.5, s"edges per pair = $perPair")
  }

  test("passenger-like uses exactly the 289 taxi zones as the node universe") {
    val mx = pax.agg(max(greatest(col("src"), col("dst")))).head.getLong(0)
    assert(mx < 289)
  }

  test("passenger-like flows are small integers (passenger counts)") {
    val distinctF = pax.select(col("f")).distinct().collect().map(_.getDouble(0))
    assert(distinctF.forall(f => f == math.rint(f)))
    assert(pax.agg(avg(col("f"))).head.getDouble(0) < 4.0)
  }

  test("bitcoin-like average flow is in the paper's ballpark (≈4.8)") {
    val avgF = btc.agg(avg(col("f"))).head.getDouble(0)
    assert(avgF > 2.0 && avgF < 9.0, s"avg flow $avgF")
  }

  test("planted events make motif instances appear at default δ/φ (bitcoin-like)") {
    // Chains must exist at the dataset's default thresholds.
    val n = FlowMotifSearch.countInstances(spark, btc, MotifCatalog.M32, delta = 600, phi = 5.0)
    assert(n > 0, "expected planted M(3,2) instances")
  }

  test("planted cyclic events make cyclic motifs appear (bitcoin-like)") {
    val n = FlowMotifSearch.countInstances(spark, btc, MotifCatalog.M33, delta = 600, phi = 5.0)
    assert(n > 0, "expected planted M(3,3) instances")
  }

  test("passenger-like plants only chains: acyclic instances dominate cyclic ones") {
    val chains = FlowMotifSearch.countInstances(spark, pax, MotifCatalog.M32, 900, 2.0)
    val cycles = FlowMotifSearch.countInstances(spark, pax, MotifCatalog.M33, 900, 2.0)
    assert(chains > cycles, s"chains=$chains cycles=$cycles")
  }

  test("each network carries the paper's default (δ, φ)") {
    assert(InteractionGen.networks.map(n => (n.name, n.delta, n.phi)) ==
      Seq(("bitcoin", 600L, 5.0), ("facebook", 600L, 3.0), ("passenger", 900L, 2.0)))
  }

  test("byName gives each network's generator at the same sf and seed, row for row") {
    def rows(d: DataFrame) = d.orderBy("src", "dst", "t", "f").collect().toSeq
    for ((name, d) <- Seq("bitcoin" -> btc, "facebook" -> fb, "passenger" -> pax))
      assert(rows(InteractionGen.byName(spark, name, sf)) == rows(d), name)
  }

  test("byName rejects an unknown dataset, naming the known ones") {
    val e = intercept[IllegalArgumentException](InteractionGen.byName(spark, "twitter", sf))
    assert(e.getMessage == "unknown dataset twitter; known: bitcoin, facebook, passenger")
  }

  test("tiny scale factors still produce non-degenerate graphs") {
    val d = InteractionGen.bitcoinLike(spark, 0.001)
    assert(d.count() > 50)
    assert(NetworkStats.stats(d).nodes > 10)
  }
}
