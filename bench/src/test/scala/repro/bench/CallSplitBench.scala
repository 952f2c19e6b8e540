package repro.bench

import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import repro.core.{FlowMotifSearch, Index, LocalEnumerator, MotifCatalog, StructuralMatcher}
import repro.data.{InteractionGen, Randomizer}
import repro.stats.Significance

/** Where one warm call's time goes: planning the checked collect, its scan job (with the job's task
  * count), the driver's merge of the blocks, the `Index`, and the walk with phase P2, each the median
  * of warm calls, next to the whole call. Planning runs from the call to the job's submission and the
  * merge from the job's end to the collect's return, by the scheduler's clock (ms). The walk + P2 column
  * times this suite's copy of the call's aggregate step, not the call's own. The inputs are fixed
  * (perfbench's `search-sparse` and `significance` inputs, and bitcoin-like at sf 1 and 10, on either
  * side of the size up to which the collect runs one wave of tasks), not scaled by BENCH_SF. `est MB`
  * is the cached input's size as Spark estimates it, in MB of 2^20 bytes.
  */
class CallSplitBench extends BenchBase {
  import CallSplitBench.Split

  /** Each job's submission and end times (ms, the end −1 until it ends) and its task count, by job id. */
  private object Jobs extends SparkListener {
    val seen = new ConcurrentHashMap[Int, (Long, Long, Int)]()
    override def onJobStart(e: SparkListenerJobStart): Unit =
      seen.put(e.jobId, (e.time, -1L, e.stageInfos.map(_.numTasks).sum))
    override def onJobEnd(e: SparkListenerJobEnd): Unit =
      seen.computeIfPresent(e.jobId, (_, j) => j.copy(_2 = e.time))
  }

  /** One call split into its layers: `collect` (which must run one job), `Index` over what it returns, the walk. */
  private def split[C](collect: => C)(index: C => Index)(walk: Index => Any): Split = {
    Jobs.seen.clear()
    val t0 = System.currentTimeMillis()
    val collected = collect
    val t1 = System.currentTimeMillis()
    def jobs = Jobs.seen.values.asScala.filter(j => j._1 >= t0 && j._1 <= t1).toSeq // submitted in the collect
    val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000 // the listener hears of jobs asynchronously
    while (!jobs.exists(_._2 >= 0) && System.nanoTime() < deadline) Thread.sleep(1)
    assert(jobs.length == 1 && jobs.head._2 >= 0, s"the collect ran jobs $jobs")
    val (start, end, tasks) = jobs.head
    val (gt, indexS) = timed(index(collected))
    val (_, walkS) = timed(walk(gt))
    Split(start - t0, end - start, tasks, t1 - end, indexS * 1e3, walkS * 1e3)
  }

  private def median(xs: Seq[Double]): Double = { val s = xs.sorted; (s((s.length - 1) / 2) + s(s.length / 2)) / 2 }

  test("the split of one warm call: planning, scan job, merge, Index, walk + P2") {
    banner("CALL SPLIT — one warm call, medians in ms (M(3,2), δ 600)")
    val sc = spark.sparkContext
    val (m, delta) = (MotifCatalog.M32, 600L)
    val count = (gt: Index, phi: Double) => StructuralMatcher.aggregate(sc, gt, m, 0L)(
      (n, g, _, ps) => n + LocalEnumerator.count(g.seriesOf(ps, 0), delta, phi), _ + _)
    val (seed, r) = (1234L, 2) // perfbench's study
    val studyWalk = (gt: Index) => StructuralMatcher.aggregate(sc, gt, m, new Array[Long](r + 1))(
      (n, g, _, ps) => { for (j <- n.indices) n(j) += LocalEnumerator.count(g.seriesOf(ps, j), delta, 3.0); n },
      (a, b) => { for (j <- a.indices) a(j) += b(j); a })
    val searchCall = (df: DataFrame) => split(FlowMotifSearch.checkedEdges(df))(Index(_))(count(_, 5.0))
    val studyCall = (df: DataFrame) =>
      split(Randomizer.flowVectors(df, seed, r))(c => Index(c._1, c._2))(studyWalk)
    val cases = Seq[(String, DataFrame, DataFrame => Split, DataFrame => Any, Int)](
      ("search-sparse, count", InteractionGen.bitcoinLike(spark, 0.25, 42), searchCall,
        FlowMotifSearch.countInstances(spark, _, m, delta, 5.0), 40),
      ("significance, study R = 2", InteractionGen.facebookLike(spark, 0.25, 43), studyCall,
        Significance.study(spark, _, m, delta, 3.0, r, seed), 40),
      ("bitcoin-like sf 1, count", InteractionGen.bitcoinLike(spark, 1.0), searchCall,
        FlowMotifSearch.countInstances(spark, _, m, delta, 5.0), 20),
      ("bitcoin-like sf 10, count", InteractionGen.bitcoinLike(spark, 10.0), searchCall,
        FlowMotifSearch.countInstances(spark, _, m, delta, 5.0), 7))
    println(f"${"input, call"}%-28s${"rows"}%9s${"est MB"}%8s${"tasks"}%7s${"plan"}%8s${"scan"}%8s${"merge"}%8s" +
      f"${"Index"}%8s${"walk+P2"}%9s${"call"}%8s")
    sc.addSparkListener(Jobs)
    try for ((name, input, call, whole, n) <- cases) {
      val df = input.cache()
      val rows = df.count()
      val est = spark.sessionState.executePlan(df.queryExecution.analyzed).optimizedPlan.stats.sizeInBytes
      val estMb = est.toDouble / (1 << 20)
      for (_ <- 1 to math.max(3, n / 4)) call(df)
      val splits = Seq.fill(n)(call(df))
      val calls = Seq.fill(n)(timed(whole(df))._2 * 1e3)
      df.unpersist()
      val tasks = splits.map(_.tasks).max
      def med(layer: Split => Double) = median(splits.map(layer))
      println(f"$name%-28s$rows%9d$estMb%8.3f$tasks%7d${med(_.plan)}%8.1f${med(_.scan)}%8.1f${med(_.merge)}%8.1f" +
        f"${med(_.index)}%8.1f${med(_.walk)}%9.1f${median(calls)}%8.1f")
    } finally sc.removeSparkListener(Jobs)
  }
}

private object CallSplitBench {
  final case class Split(plan: Double, scan: Double, tasks: Int, merge: Double, index: Double, walk: Double)
}
