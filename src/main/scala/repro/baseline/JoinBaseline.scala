package repro.baseline

import org.apache.spark.sql.{Column, DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One candidate edge-set of a motif edge: a contiguous run of interactions
  * on graph edge `(src, dst)` spanning `[ts, te]` (both endpoints are actual
  * interaction timestamps), with aggregated flow `f`. `prev` is the pair's
  * nearest interaction strictly before `ts` and `next` its nearest strictly
  * after `te`, if any.
  */
final case class Quintuple(src: Long, dst: Long, ts: Long, te: Long, f: Double, prev: Option[Long], next: Option[Long])

/** The competitor of Section 6.2.1: build motif instances bottom-up by
  * joining interval quintuples.
  *
  * Step 1 generates, per `G_T` edge, every time interval of length ≤ δ (all
  * contiguous runs of the edge's series) with its aggregated flow and its
  * neighbouring interactions — the quintuples `(u, v, t_s, t_e, f)`, on the
  * search's own walk over a one-edge motif. Step 2
  * joins them along the spanning path, one join per motif edge after the
  * first, and keeps the joined rows that pass column predicates: consecutive
  * temporal ordering, the running duration bound, cycle closure, vertex
  * distinctness and maximality. This materializes every sub-motif instance —
  * the intermediate blowup the paper blames for the baseline's slowness.
  * Runs are contiguous and never split a timestamp, so an instance is
  * maximal (Definition 3.3) exactly when edge i's `next` and edge i+1's
  * `prev` do not fall between their edge-sets, e_1's `prev` is more than δ
  * before the instance end and e_m's `next` more than δ after its start.
  * Step 1 compares spans unsigned and step 2 reads an overflowing difference
  * by its sign, so no bound wraps or throws, whatever the timestamps and δ.
  */
object JoinBaseline {

  /** All contiguous runs with span ≤ δ and flow ≥ φ, per `G_T` edge: the
    * one-edge motif's matches are exactly the pairs `(u, v)`, with `R(u, v)`.
    */
  def quintuples(
      spark: SparkSession,
      edges: DataFrame,
      delta: Long,
      phi: Double
  ): Dataset[Quintuple] = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    LocalEnumerator.requirePhi(phi)
    spark.createDataset(FlowMotifSearch.perMatch(edges, Motif("pair", Vector(0, 1))) { (vs, series) =>
      val (u, v, s) = (vs(0), vs(1), series.head)
      // A run must contain *all* elements in [ts, te]; never split a group
      // of equal timestamps (an edge-set that splits a tie can't be maximal).
      s.indices.iterator.filter(i => i == 0 || s(i - 1).t != s(i).t).flatMap { i =>
        val prev = if (i == 0) None else Some(s(i - 1).t)
        var f = 0.0 // the run's flow, summed left to right as the run grows
        val within = (j: Int) => java.lang.Long.compareUnsigned(s(j).t - s(i).t, delta) <= 0 // s sorted: exact
        (i until s.length).iterator.takeWhile(within).flatMap { j =>
          f += s(j).f
          val next = if (j + 1 < s.length) Some(s(j + 1).t) else None
          if (next.contains(s(j).t) || f < phi) None else Some(Quintuple(u, v, s(i).t, s(j).t, f, prev, next))
        }
      }
    }.flatMap(identity))
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
    val q = quintuples(spark, edges, delta, phi).toDF()
    val m = motif.m
    def c(name: String, i: Int): Column = col(s"$name$i")
    def edge(i: Int) = q.select(q.columns.toSeq.map(n => col(n).as(s"$n$i")): _*)
    // Motif edge i joins spanning-path position i to position i + 1.
    val joined = (1 until m).foldLeft(edge(0))((df, i) => df.join(edge(i), c("dst", i - 1) === c("src", i)))
    val pos = (0 until m).map(c("src", _)) :+ c("dst", m - 1)
    val shape = for (j <- 0 to m; k <- j + 1 to m) // cycle closure and vertex distinctness
      yield if (motif.path(j) == motif.path(k)) pos(j) === pos(k) else pos(j) =!= pos(k)
    // `to - from <= δ`, exact where the difference overflows a Long: its sign is then the sign of `to - from`.
    def within(to: Column, from: Column): Column = coalesce(try_subtract(to, from) <= delta, to < from)
    val inOrder = (1 until m).map(i => c("te", i - 1) < c("ts", i) && within(c("te", i), c("ts", 0)))
    val noGaps = (1 until m).map { i =>
      (c("next", i - 1).isNull || c("next", i - 1) >= c("ts", i)) &&
      (c("prev", i).isNull || c("prev", i) <= c("te", i - 1))
    }
    val noPrefix = c("prev", 0).isNull || !within(c("te", m - 1), c("prev", 0))
    val noSuffix = c("next", m - 1).isNull || !within(c("next", m - 1), c("ts", 0))
    joined.where((shape ++ inOrder ++ noGaps :+ noPrefix :+ noSuffix).reduce(_ && _)).select(
      array(motif.vertexIds.map(v => pos(motif.path.indexOf(v))): _*).as("vs"),
      array_min(array((0 until m).map(c("f", _)): _*)).as("flow"),
      c("ts", 0).as("tStart"), c("te", m - 1).as("tEnd"), typedLit(Seq.empty[Seq[TF]]).as("sets")
    ).as[InstanceRow]
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
