package repro.core

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import org.apache.spark.sql.{DataFrame, Row}
import repro.{SparkSpec, TestGraphs}
import repro.data.InteractionGen

/** The CSR `G_T` [[Index]] against the reference `G_T`,
  * [[TimeSeriesGraph.build]]: the same pairs, out-neighbours and series, under
  * every flow vector.
  */
class IndexSpec extends SparkSpec {

  private def index(df: DataFrame, flows: Interactions => IndexedSeq[Array[Double]] = e => Vector(e.f)): Index = {
    val e = FlowMotifSearch.checkedEdges(df)
    Index(e, flows(e))
  }

  /** `TimeSeriesGraph.build`'s series per pair. */
  private def reference(df: DataFrame): Map[(Long, Long), Seq[TF]] =
    TimeSeriesGraph.build(df).collect().map { r =>
      (r.getLong(0), r.getLong(1)) -> r.getSeq[Row](2).map(e => TF(e.getLong(0), e.getDouble(1)))
    }.toMap

  /** Every pair of `gt` with its series under vector `j`. */
  private def seriesByPair(gt: Index, j: Int): Map[(Long, Long), Seq[TF]] =
    gt.keys.iterator.flatMap(u => gt.pairsOf(u).map(p => (u, gt.dst(p)) -> gt.series(p, j).toVector)).toMap

  for (seed <- 1 to 4) {
    test(s"pairs, out-neighbours and series equal TimeSeriesGraph.build's (seed $seed)") {
      // Repeated timestamps with distinct flows, and self-loops.
      val rnd = new scala.util.Random(seed)
      val edges = Vector.fill(80)(TestGraphs.Edge(rnd.nextInt(7), rnd.nextInt(7), rnd.nextInt(12), rnd.nextInt(5) + 1))
      val df = TestGraphs.toDf(spark, edges)
      val (gt, ref) = (index(df), reference(df))
      assert(gt.pairs == ref.size)
      assert(seriesByPair(gt, 0) == ref)
      for (v <- 0L to 8L) // 7 and 8 have no edges at all
        assert(gt.pairsOf(v).map(gt.dst(_)) == ref.keys.collect { case (`v`, w) => w }.toSeq.sorted, s"vertex $v")
    }
  }

  test("the index does not depend on input partitioning or order") {
    // Repeated (src, dst, t) with distinct flows, and self-loops.
    val rnd = new scala.util.Random(5)
    val edges = Vector.fill(200)(TestGraphs.Edge(rnd.nextInt(6), rnd.nextInt(6), rnd.nextInt(10), rnd.nextInt(4) + 1))
    // Vector 1 is a function of each interaction that reorders runs of equal (src, dst, t).
    def flows(e: Interactions) = Vector(e.f, Array.tabulate(e.length)(i => 5 - e.f(i)))
    def contents(gt: Index) =
      (gt.pairs, (0L to 6L).map(v => gt.pairsOf(v).map(gt.dst(_))), (0 to 1).map(seriesByPair(gt, _)))
    val expected = contents(index(TestGraphs.toDf(spark, edges), flows))
    for (es <- Seq(edges, rnd.shuffle(edges)); p <- Seq(1, 4, 7))
      assert(contents(index(spark.createDataFrame(spark.sparkContext.parallelize(es, p)), flows)) == expected,
        s"$p partitions")
  }

  test("a vertex with only in-edges gives no pairs") {
    val gt = index(TestGraphs.toDf(spark, TestGraphs.fig2Edges :+ TestGraphs.Edge(2, 9, 20, 1.0)))
    assert(gt.pairsOf(9).isEmpty)
    assert(gt.pairsOf(2).map(gt.dst(_)) == Seq(3L, 9L))
  }

  test("empty input and self-loop-only input give 0 pairs") {
    val loops = Vector(TestGraphs.Edge(1, 1, 1, 2.0), TestGraphs.Edge(2, 2, 2, 3.0))
    for (edges <- Seq(Vector.empty[TestGraphs.Edge], loops)) {
      val gt = index(TestGraphs.toDf(spark, edges))
      assert(gt.pairs == 0 && gt.keys.isEmpty)
      assert(gt.pairsOf(1).isEmpty)
    }
  }

  test("series j equals TimeSeriesGraph.build of the graph that carries flow vector j") {
    // Pair (1, 2) repeats t = 5 three times; vector 1 reverses the flows of the sorted interactions.
    val edges = Vector(TestGraphs.Edge(1, 2, 5, 3.0), TestGraphs.Edge(1, 2, 5, 1.0), TestGraphs.Edge(1, 2, 8, 4.0),
      TestGraphs.Edge(1, 2, 5, 2.0), TestGraphs.Edge(2, 3, 7, 5.0), TestGraphs.Edge(3, 3, 7, 6.0))
    val df = TestGraphs.toDf(spark, edges)
    val e = FlowMotifSearch.checkedEdges(df)
    val flows = Vector(e.f, e.f.reverse)
    val gt = index(df, _ => flows)
    for (j <- flows.indices) {
      val carrying = (0 until e.length).map(i => TestGraphs.Edge(e.src(i), e.dst(i), e.t(i), flows(j)(i)))
      assert(seriesByPair(gt, j) == reference(TestGraphs.toDf(spark, carrying)), s"vector $j")
    }
    assert(gt.series(gt.pairsOf(1).head, 1) == Seq(TF(5, 4.0), TF(5, 5.0), TF(5, 6.0), TF(8, 3.0)))
  }

  test("the Java-serialized index of bitcoinLike(sf 0.25) takes at most 32 B per interaction") {
    // Spark's default broadcast Java-serializes the index once per search.
    val e = FlowMotifSearch.checkedEdges(InteractionGen.bitcoinLike(spark, 0.25, seed = 42))
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(Index(e))
    out.close()
    val perRow = bytes.size.toDouble / e.length
    assert(perRow <= 32, f"$perRow%.1f B per interaction over ${e.length} interactions")
  }
}
