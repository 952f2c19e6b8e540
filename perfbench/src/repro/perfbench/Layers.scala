package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.data.Randomizer
import repro.stats.Significance
import scala.collection.mutable

/** Per-layer totals of one traced round, keyed by metric name. */
final class LayerTotals {
  val values: mutable.Map[String, Double] = mutable.LinkedHashMap.empty
  def add(k: String, v: Double): Unit = values(k) = values.getOrElse(k, 0.0) + v
  def max(k: String, v: Double): Unit = values(k) = math.max(values.getOrElse(k, 0.0), v)
}

/** Replays a call layer by layer, calling each layer's public function in the
  * order the call runs it, and times each one from outside. The replay's
  * answer is computed from the layers alone, so it also cross-checks the
  * entry point.
  */
final class Layers(spark: SparkSession, tracer: Tracer, acc: LayerTotals) {

  def replay(edges: DataFrame, call: Call): Seq[Double] = call match {
    case Call.Study(m, d, phi, r, seed) =>
      val real = p2(matchRows(edges, m), Call.Count(m, d, phi)).head
      val randoms = (0 until r).map { i =>
        val permuted = randomize(edges, seed + i)
        p2(matchRows(permuted, m), Call.Count(m, d, phi)).head.toLong
      }
      val (mu, sd, z) = Significance.zScore(real.toLong, randoms)
      Seq(real, mu, sd, z)
    case c => p2(matchRows(edges, c.motif), c)
  }

  /** `data.Randomizer.permuteFlows`, forced by an aggregate over every column. */
  def randomize(edges: DataFrame, seed: Long): DataFrame = {
    val permuted = Randomizer.permuteFlows(edges, seed)
    val (_, s) = tracer.span(permuted.agg(count(lit(1)), sum(col("f")), max(col("t"))).head())
    acc.add("rand.s", s.wallS)
    acc.add("rand.shuffle_mb", s.shuffleMb)
    acc.max("rand.max_task_share", s.maxTaskShare)
    permuted
  }

  /** G_T build, distinct pairs, P1 and series attach; returns the match rows.
    * Each step caches its output, so the next step is timed without it:
    * `matchRows` reuses the cached G_T and pairs, and pays for P1 and attach.
    */
  private def matchRows(edges: DataFrame, motif: Motif): Array[IndexedSeq[IndexedSeq[TF]]] = {
    val gtDf = TimeSeriesGraph.build(edges).cache()
    val (gt, gtS) = tracer.span(gtDf.agg(count(lit(1)), coalesce(sum(size(col("series"))), lit(0L))).head())
    acc.add("gt.s", gtS.wallS)
    acc.add("gt.rows", gt.getLong(0).toDouble)
    acc.add("gt.series_elems", gt.getLong(1).toDouble)

    val pairs = TimeSeriesGraph.pairs(edges).cache()
    val (_, pairsS) = tracer.span(pairs.count())
    val (nMatches, p1S) = tracer.span(StructuralMatcher.matches(pairs, motif).count())
    acc.add("pairs.s", pairsS.wallS)
    acc.add("p1.s", p1S.wallS)
    acc.add("p1.matches", nMatches.toDouble)
    acc.add("p1.stages", p1S.stages)
    acc.add("p1.shuffle_mb", p1S.shuffleMb)

    val (rows, mrS) = tracer.span(FlowMotifSearch.matchRows(spark, edges, motif).collect())
    pairs.unpersist(blocking = true)
    val (attach, clamped) = Stats.selfTime(mrS.wallS, Seq(p1S.wallS))
    acc.add("match_rows.s", mrS.wallS)
    acc.add("match_rows.stages", mrS.stages)
    acc.add("match_rows.shuffle_mb", mrS.shuffleMb)
    acc.add("attach.s", attach)
    acc.add("attach.clamped", if (clamped) 1 else 0)
    val series = rows.map(_.series.map(_.toIndexedSeq).toIndexedSeq)
    acc.add("attach.series_elems", series.iterator.map(_.iterator.map(_.length).sum.toDouble).sum)
    acc.add("p2.rows", series.length)
    series
  }

  /** P2 kernels the round does not call, to time once over the next call's
    * match rows, so that every kernel is measured on every workload.
    */
  var untimedKernels: Set[String] = Set.empty

  /** P2 for every match row, single-threaded on the driver, timed per row. */
  private def p2(rows: Array[IndexedSeq[IndexedSeq[TF]]], call: Call): Seq[Double] = {
    def kernel[A: scala.reflect.ClassTag](key: String)(f: IndexedSeq[IndexedSeq[TF]] => A): Array[A] = {
      var total = 0.0
      var max = 0.0
      val out = rows.map { s =>
        val t0 = System.nanoTime()
        val a = f(s)
        val t = (System.nanoTime() - t0) / 1e9
        total += t
        max = math.max(max, t)
        a
      }
      acc.add(key, total)
      acc.max("p2.max_row_s", max)
      if (total > 0) acc.max("p2.max_row_share", max / total)
      out
    }
    val phi = call match { case Call.Count(_, _, f) => f; case _ => 0.0 }
    def enumerate = kernel("p2.enum_s")(LocalEnumerator.count(_, call.delta, phi))
    def topK(k: Int) = kernel("p2.topk_s")(TopKEnumerator.topK(_, call.delta, k).map(_.flow))
    def maxFlow = kernel("p2.dp_s")(MaxFlowDP.maxFlow(_, call.delta))
    val answer = call match {
      case _: Call.Count =>
        val n = enumerate.sum
        acc.add("p2.instances", n.toDouble)
        Seq(n.toDouble)
      case Call.TopK(_, _, k) => topK(k).flatten.sortBy(-_).take(k).toSeq
      case _: Call.MaxFlow => Seq(maxFlow.maxOption.getOrElse(0.0))
      case s: Call.Study => throw new IllegalArgumentException(s"P2 of a study: ${s.label}")
    }
    untimedKernels.foreach {
      case "p2.enum_s" => enumerate
      case "p2.topk_s" => topK(Layers.ProbeK)
      case "p2.dp_s" => maxFlow
    }
    untimedKernels = Set.empty
    answer
  }
}

object Layers {
  /** k of the top-k kernel when it is timed outside a top-k call. */
  val ProbeK = 10

  val Kernels: Set[String] = Set("p2.enum_s", "p2.topk_s", "p2.dp_s")

  /** The P2 kernel a call runs. */
  def kernelOf(call: Call): String = call match {
    case _: Call.Count | _: Call.Study => "p2.enum_s"
    case _: Call.TopK => "p2.topk_s"
    case _: Call.MaxFlow => "p2.dp_s"
  }
}
