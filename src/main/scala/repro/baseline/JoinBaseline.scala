package repro.baseline

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One candidate edge-set of a motif edge: a contiguous run of interactions
  * on graph edge `(src, dst)` spanning `[ts, te]` (both endpoints are actual
  * interaction timestamps), with aggregated flow `f`.
  */
final case class Quintuple(src: Long, dst: Long, ts: Long, te: Long, f: Double)

/** A fully-joined motif candidate prior to the maximality filter. */
final case class BaselineRow(vs: Seq[Long], ts: Seq[Long], te: Seq[Long], fs: Seq[Double])

/** The competitor of Section 6.2.1: build motif instances bottom-up by
  * joining interval quintuples.
  *
  * Step 1 generates, per `G_T` edge, every time interval of length ≤ δ (all
  * contiguous runs of the edge's series) with its aggregated flow — the
  * quintuples `(u, v, t_s, t_e, f)`. Step 2 merge-joins them along the
  * spanning path, one join per motif edge after the first, checking
  * consecutive temporal ordering, the running duration bound, vertex bindings
  * and (for cyclic motifs) cycle closure. This materializes every sub-motif
  * instance — the intermediate blowup the paper blames for the baseline's
  * slowness. A final filter keeps only maximal instances so the output
  * matches the two-phase algorithm row-for-row.
  *
  * `G_T` is the search's own [[Index]] over its checked collect, broadcast
  * once: step 1 reads its pairs and the maximality filter its series.
  */
object JoinBaseline {

  private def broadcastGT(edges: DataFrame): Broadcast[Index] =
    edges.sparkSession.sparkContext.broadcast(Index(FlowMotifSearch.checkedRows(edges)))

  /** All contiguous runs with span ≤ δ and flow ≥ φ, per `G_T` edge. */
  def quintuples(
      spark: SparkSession,
      edges: DataFrame,
      delta: Long,
      phi: Double
  ): Dataset[Quintuple] = {
    LocalEnumerator.requireDelta(delta)
    quintuplesOf(spark, broadcastGT(edges), delta, phi)
  }

  private def quintuplesOf(spark: SparkSession, gt: Broadcast[Index], delta: Long, phi: Double) = {
    import spark.implicits._
    val sc = spark.sparkContext
    spark.createDataset(sc.parallelize(gt.value.keys.indices, sc.defaultParallelism).flatMap { key =>
      val (g, u) = (gt.value, gt.value.keys(key))
      g.pairsOf(u).iterator.flatMap { p =>
        val (v, s) = (g.dst(p), g.series(p, 0))
        // A run must contain *all* elements in [ts, te]; never split a group
        // of equal timestamps (an edge-set that splits a tie can't be maximal).
        for {
          i <- s.indices
          if i == 0 || s(i - 1).t != s(i).t
          j <- i until s.length
          if s(j).t - s(i).t <= delta
          if j == s.length - 1 || s(j + 1).t != s(j).t
          f = s.slice(i, j + 1).map(_.f).sum
          if f >= phi
        } yield Quintuple(u, v, s(i).t, s(j).t, f)
      }
    })
  }

  /** All maximal instances, as [[InstanceRow]]s (sets omitted). */
  def instances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Dataset[InstanceRow] = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    val gt = broadcastGT(edges)
    val q = quintuplesOf(spark, gt, delta, phi).toDF()

    def vcol(i: Int) = StructuralMatcher.vcol(i)
    def qAlias(i: Int) =
      q.select(col("src").as(s"_qa$i"), col("dst").as(s"_qb$i"),
               col("ts").as(s"ts$i"), col("te").as(s"te$i"), col("f").as(s"f$i"))

    val (a0, b0) = motif.edges.head
    var df = qAlias(0)
      .withColumnRenamed(s"_qa0", vcol(a0))
      .withColumnRenamed(s"_qb0", vcol(b0))
    var bound = Set(a0, b0)
    for (step <- 1 until motif.m) {
      val (a, b) = motif.edges(step)
      df = df.join(qAlias(step), col(vcol(a)) === col(s"_qa$step"))
      df =
        if (bound(b)) df.where(col(s"_qb$step") === col(vcol(b))).drop(s"_qa$step", s"_qb$step")
        else { bound += b; df.withColumn(vcol(b), col(s"_qb$step")).drop(s"_qa$step", s"_qb$step") }
      // consecutive temporal ordering + running duration bound (δ)
      df = df.where(col(s"te${step - 1}") < col(s"ts$step") &&
                    col(s"te$step") - col("ts0") <= delta)
    }
    val vids = motif.vertexIds
    val distinctness = for { i <- vids; j <- vids if i < j } yield col(vcol(i)) =!= col(vcol(j))
    df = df.where(distinctness.reduceOption(_ && _).getOrElse(lit(true)))

    val m = motif.m
    val rows = df.select(
      array(vids.map(i => col(vcol(i))): _*).as("vs"),
      array((0 until m).map(i => col(s"ts$i")): _*).as("ts"),
      array((0 until m).map(i => col(s"te$i")): _*).as("te"),
      array((0 until m).map(i => col(s"f$i")): _*).as("fs")
    ).as[BaselineRow]

    // The full series per motif edge, for the maximality filter, from the broadcast G_T.
    rows
      .filter { r =>
        val g = gt.value
        val series = motif.edges.map { case (a, b) => g.series(g.pairsOf(r.vs(a)).find(g.dst(_) == r.vs(b)).get, 0) }
        isMaximal(r, series, delta)
      }
      .map(r => InstanceRow(r.vs, r.fs.min, r.ts.head, r.te.last, Seq.empty))
  }

  /** Maximality of a joined candidate w.r.t. the full per-edge series
    * (`series(i)` is motif edge i's): no interaction of edge i or i+1 falls
    * strictly between consecutive edge-set extents, no e_1 interaction could
    * be prepended within δ of the instance end, and no e_m interaction could
    * be appended within δ of the instance start. Runs are contiguous by
    * construction, so these boundary conditions are exactly Definition 3.3.
    */
  private[baseline] def isMaximal(r: BaselineRow, series: Seq[IndexedSeq[TF]], delta: Long): Boolean = {
    val m = r.ts.length
    val tEnd = r.te(m - 1)
    val tStart = r.ts.head
    val noPrefix = !series.head.exists(x => x.t >= tEnd - delta && x.t < tStart)
    val noSuffix = !series(m - 1).exists(x => x.t > tEnd && x.t <= tStart + delta)
    val noGaps = (0 until m - 1).forall { i =>
      val lo = r.te(i); val hi = r.ts(i + 1)
      !series(i).exists(x => x.t > lo && x.t < hi) &&
      !series(i + 1).exists(x => x.t > lo && x.t < hi)
    }
    noPrefix && noSuffix && noGaps
  }

  /** Number of maximal instances via the baseline pipeline. */
  def count(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Long = instances(spark, edges, motif, delta, phi).count()
}
