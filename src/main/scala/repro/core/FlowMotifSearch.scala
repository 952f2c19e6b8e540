package repro.core

import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.rdd.{PartitionCoalescer, PartitionGroup, RDD}
import org.apache.spark.sql.{Column, DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, LongType}

/** A structural match bundled with its per-motif-edge time series, the unit of
  * work for phase P2. `vs(i)` is the graph vertex mapped to motif vertex `i`;
  * `series(i)` is `R(e_{i+1})`.
  */
final case class MatchRow(vs: Seq[Long], series: Seq[Seq[TF]])

/** The paper's two-phase flow motif search, distributed:
  * P1 = [[StructuralMatcher]] (the spanning-path DFS over the `G_T` [[Index]], broadcast unless the
  * driver walks a small one itself; it hands each match over as the pairs its edges traverse);
  * P2 = [[LocalEnumerator]] (Algorithm 1), run on each match inside the
  * walk that found it: by [[perMatch]] for the distributed outputs and the join baseline's step 1,
  * or by [[StructuralMatcher.aggregate]] for every scalar answer (count, top-k, top-1 and the study).
  */
object FlowMotifSearch {

  /** Phases P1 and P2: `p2(vs, series)` for each structural match, in the task
    * that found it, over the [[Index]] of the edges' own flows. `vs` is reused
    * between matches, so `p2` must copy what it keeps.
    */
  private[repro] def perMatch[R: ClassTag](edges: DataFrame, motif: Motif)(
      p2: (Array[Long], IndexedSeq[IndexedSeq[TF]]) => R
  ): RDD[R] =
    StructuralMatcher.search(edges.sparkSession.sparkContext, Index(checkedEdges(edges)), motif)(
      (gt, vs, ps) => p2(vs, gt.seriesOf(ps, 0)))

  /** The one checked collect every search starts from: `src, dst, t, f`, then `extra`, sorted by
    * `(src, dst, t, f)`. Column types are checked before any job; a small input is read by one wave of
    * at most `defaultParallelism` tasks over runs of consecutive partitions, and each task checks its
    * rows in order, self-loops included, and returns the first bad row's message or else its rows
    * sorted. The driver throws the first message in partition order, or else merges the blocks. */
  private[repro] def checkedEdges(edges: DataFrame, extra: Column*): Interactions = {
    val cols = Vector("src", "dst", "t", "f") // rows are read by position: the input, or else the select, is in this order
    for ((c, want) <- cols.zip(Seq(LongType, LongType, LongType, DoubleType)); got = edges.schema(c).dataType)
      require(got == want, s"column $c must be ${want.simpleString}, got ${got.simpleString}")
    val extras = extra.length
    // `edges`' own plan when it is already `src, dst, t, f`, planned afresh: its memoized `toRdd` could read a
    // cache since cleared. The grouping sits above the plan, so `rand` is seeded by each input partition's index.
    val input = if (extras == 0 && edges.columns.sameElements(cols)) edges else edges.select(cols.map(col) ++ extra: _*)
    val sc = edges.sparkSession.sparkContext
    val plan = edges.sparkSession.sessionState.executePlan(input.queryExecution.analyzed)
    // An input Spark sizes at 1 MB or less scans faster than a second wave of tasks starts, so one wave reads runs of
    // its partitions in order. A larger or unsized one keeps a task per partition, which Spark spreads however skewed.
    val rows = if (plan.optimizedPlan.stats.sizeInBytes > (1 << 20)) plan.toRdd
      else plan.toRdd.coalesce(sc.defaultParallelism, partitionCoalescer = Some(Consecutive))
    // This `runJob` cleans one closure, `collect()` two more of Spark's.
    val blocks = sc.runJob(rows, (_: TaskContext, it: Iterator[InternalRow]) => {
      val (src, dst, t) = (new ArrayBuilder.ofLong, new ArrayBuilder.ofLong, new ArrayBuilder.ofLong)
      val (f, xs) = (new ArrayBuilder.ofDouble, Array.fill(extras)(new ArrayBuilder.ofDouble))
      val bad = it.flatMap { r => // the first bad row's message, if any: reading stops there
        def edge = if (r.isNullAt(0) || r.isNullAt(1)) "" else s" on edge (${r.getLong(0)}, ${r.getLong(1)})"
        try {
          for (i <- 0 to 3) require(!r.isNullAt(i), s"column ${cols(i)} must not be null, got ${cols(i)}=null$edge")
          Series.requireFlow(TF(r.getLong(2), r.getDouble(3)))
          src += r.getLong(0); dst += r.getLong(1); t += r.getLong(2); f += r.getDouble(3)
          for (j <- xs.indices) xs(j) += r.getDouble(4 + j)
          None
        } catch { case e: IllegalArgumentException => Some(e.getMessage) }
      }.nextOption()
      val block = new Interactions(src.result(), dst.result(), t.result(), f.result(), xs.map(_.result()))
      bad.toLeft(block.sorted(Array.range(0, block.length + 1)))
    }).toSeq.map(_.fold(message => throw new IllegalArgumentException(message), identity))
    def cat[A: ClassTag](column: Interactions => Array[A]) = Array.concat(blocks.map(column): _*)
    new Interactions(cat(_.src), cat(_.dst), cat(_.t), cat(_.f), Array.tabulate(extras)(j => cat(_.extra(j))))
      .sorted(blocks.scanLeft(0)(_ + _.length).toArray)
  }

  /** At most `max` groups of consecutive partitions, so a task reads its partitions in the input's order. */
  private object Consecutive extends PartitionCoalescer with Serializable {
    def coalesce(max: Int, parent: RDD[_]): Array[PartitionGroup] = {
      val (ps, n) = (parent.partitions, math.min(max, parent.partitions.length))
      Array.tabulate(n)(g => new PartitionGroup { partitions ++= ps.slice(g * ps.length / n, (g + 1) * ps.length / n) })
    }
  }

  /** Phase P1 alone: one [[MatchRow]] per structural match. */
  def matchRows(spark: SparkSession, edges: DataFrame, motif: Motif): Dataset[MatchRow] = {
    import spark.implicits._
    spark.createDataset(perMatch(edges, motif)((vs, series) => MatchRow(vs.toSeq, series)))
  }

  /** All maximal instances of `(motif, δ, φ)` in the interaction network.
    *
    * @param edges interaction multigraph: (src, dst, t, f)
    */
  def instances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Dataset[InstanceRow] = {
    import spark.implicits._
    LocalEnumerator.requireDelta(delta)
    LocalEnumerator.requirePhi(phi)
    spark.createDataset(perMatch(edges, motif) { (vs, series) =>
      val v = vs.toSeq
      LocalEnumerator.enumerate(series, delta, phi).map(_.copy(vs = v))
    }.flatMap(identity))
  }

  /** Number of maximal instances (count-only fast path). */
  def countInstances(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double
  ): Long = {
    LocalEnumerator.requireDelta(delta)
    LocalEnumerator.requirePhi(phi)
    StructuralMatcher.aggregate(spark.sparkContext, Index(checkedEdges(edges)), motif, 0L)(
      (n, gt, _, ps) => n + LocalEnumerator.count(gt.seriesOf(ps, 0), delta, phi), _ + _)
  }
}
