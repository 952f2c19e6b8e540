package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.FlowMotifSearch
import repro.data.Randomizer
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

final case class Metric(name: String, value: Double, unit: String)

/** What a run reports: operation counts, metrics, and notes to print. */
final case class Result(attempted: Int, failed: Int, metrics: Seq[Metric], notes: Seq[String])

/** One benchmark run of a workload in this JVM.
  *
  * Set-up starts the session, builds and caches the input (several times, the
  * median counts) and runs the workload's warm-up rounds. Then rounds
  * run until the time is up. After every round the benchmark reads the
  * storage the program left cached and clears it, and re-caches the input
  * outside the timed region, so every round starts from the same cache state.
  * Answers are checked after the last round.
  */
final class Bench(spark: SparkSession, w: Workload, seed: Long, cores: Int) {
  import Bench._

  private val ledger = new Ledger
  private val judged = ArrayBuffer.empty[Seq[(Call, Outcome)]]
  private var edges: DataFrame = _
  private var inputMb = 0.0

  private def now: Double = System.nanoTime() / 1e9

  private def storageMb: Double =
    spark.sparkContext.getRDDStorageInfo.iterator.map(i => i.memSize + i.diskSize).sum / 1e6

  private def gcS: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1000.0

  private def cacheInput(): Long = {
    spark.catalog.clearCache()
    val n = edges.cache().count()
    inputMb = storageMb
    n
  }

  private final case class RoundRun(wallS: Double, callS: Seq[Double], cachedMb: Double, gcS: Double)

  /** One round: every call once, through `call`; checked at the end of the run. */
  private def round(call: Call => Seq[Double]): RoundRun = {
    val gc0 = gcS
    val outs = w.round.map(c => c -> ledger.attempt(c.label)(call(c)))
    val gc = gcS - gc0
    val cached = storageMb
    cacheInput()
    judged += outs
    RoundRun(outs.map(_._2.wallS).sum, outs.map(_._2.wallS), cached, gc)
  }

  private def plainRound(): RoundRun = round(c => Call.run(spark, edges, c))

  def run(seconds: Double, trace: Boolean, sessionS: Double): Result = {
    val inputSetups = (1 to InputSetups).map { _ =>
      val t0 = now
      edges = w.generate(spark, seed)
      val n = cacheInput()
      (now - t0, n)
    }
    val genS = Stats.median(inputSetups.map(_._1))

    val warmStart = now
    val warm = Seq.fill(w.warmupRounds)(plainRound().wallS)
    val setupS = sessionS + genS + (now - warmStart)

    ManagementFactory.getMemoryPoolMXBeans.asScala.foreach(_.resetPeakUsage())
    val deadline = now + seconds
    val plain = ArrayBuffer.empty[RoundRun]
    val traced = ArrayBuffer.empty[(Double, LayerTotals)]
    do {
      plain += plainRound()
      if (trace) traced += tracedIteration(first = traced.isEmpty)
    } while (now < deadline)
    val peakHeapMb = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1e6

    checkAll()

    val latencies = plain.flatMap(_.callS).toSeq
    val tail = Stats.tail(latencies)
    val roundS = Stats.median(plain.map(_.wallS).toSeq)
    val cachedMb = Stats.median(plain.map(_.cachedMb).toSeq)
    val notes = Seq(
      f"warm-up rounds: ${warm.map(s => f"$s%.3f").mkString(", ")} s",
      f"measured rounds: ${plain.map(r => f"${r.wallS}%.3f").mkString(", ")} s",
      f"query_tail_s is p${tail.pct}%s of ${tail.n} queries",
      f"input: ${inputSetups.head._2} interactions, cached ${inputMb}%.3f MB",
      "first answers: " + judged.head.map { case (c, o) => s"${c.label}=${o.answer.fold("-")(_.mkString(","))}" }.mkString("; ")
    ) ++ ledger.reasons.distinct.take(10).map("FAILED " + _)

    val metrics =
      if (!trace) Seq(
        Metric("setup_s", setupS, "s"),
        Metric("round_s", roundS, "s"),
        Metric("query_p50_s", Stats.median(latencies), "s"),
        Metric("query_tail_s", tail.value, "s"),
        Metric("cached_mb", cachedMb, "MB"))
      else {
        val layer = PerLayer.map { case (name, unit) =>
          val samples = traced.flatMap(_._2.values.get(name)).toSeq
          Metric(name, if (samples.isEmpty) 0.0 else Stats.median(samples), unit)
        }
        layer ++ Seq(
          Metric("gen.s", genS, "s"),
          Metric("gen.rows", inputSetups.head._2.toDouble, "count"),
          Metric("jvm.gc_s", Stats.median(plain.map(_.gcS).toSeq), "s"),
          Metric("jvm.peak_heap_mb", peakHeapMb, "MB"),
          Metric("cache.leaked_mb", Stats.median(plain.map(_.cachedMb - inputMb).toSeq), "MB"),
          Metric("query.samples", tail.n.toDouble, "count"),
          Metric("query.tail_pct", tail.pct, "%"),
          Metric("failed_frac", ledger.failedFrac, "ratio"),
          Metric("trace.overhead_frac", Stats.median(traced.map(_._1).toSeq) / roundS - 1, "ratio"))
      }
    Result(ledger.attempted, ledger.failed, metrics, notes)
  }

  /** A traced round: the round's calls with the tracer attached, then each call
    * replayed layer by layer. Returns the traced round's wall time and totals.
    */
  private def tracedIteration(first: Boolean): (Double, LayerTotals) = {
    val acc = new LayerTotals
    val tracer = new Tracer(spark)
    val layers = new Layers(spark, tracer, acc)
    tracer.attach()
    try {
      def study(c: Call, s: Span): Unit = c match {
        case st: Call.Study =>
          acc.add("sig.s", s.wallS)
          acc.add("sig.randomizations", st.nRandom)
        case _ =>
      }
      val r = round { c =>
        val (a, s) = tracer.span(Call.run(spark, edges, c))
        acc.add("query.stages", s.stages)
        acc.add("query.tasks", s.tasks)
        acc.add("query.task_s", s.taskS)
        acc.add("query.shuffle_mb", s.shuffleMb)
        acc.add("query.wait_s", s.wallS - s.taskS / cores)
        acc.max("query.max_task_share", s.maxTaskShare)
        study(c, s)
        a
      }
      val hasStudy = w.round.exists(_.isInstanceOf[Call.Study])
      // A workload without a study still times one, once, so that every
      // layer is measured on every workload.
      if (!hasStudy && first) {
        w.round.collectFirst { case Call.Count(m, d, phi) => Call.Study(m, d, phi, 1, Workloads.StudySeed) }
          .foreach { st =>
            val o = ledger.attempt(st.label) {
              val (a, s) = tracer.span(Call.run(spark, edges, st))
              study(st, s)
              a
            }
            judged += Seq(st -> o)
            cacheInput()
          }
      }

      if (first) layers.untimedKernels = Layers.Kernels -- w.round.map(Layers.kernelOf)
      val replays = w.round.map(c => c -> ledger.attempt("replay " + c.label)(layers.replay(edges, c)))
      if (!hasStudy) layers.randomize(edges, seed)
      cacheInput()
      judged += replays
      (r.wallS, acc)
    } finally tracer.detach()
  }

  /** Judge every outcome: goldens for the default seeds, else the first
    * round's answers; plus the invariants, which hold on every input.
    */
  private def checkAll(): Unit = {
    val golden = Goldens.lookup(w.name, seed)
    val expected = golden.getOrElse(
      judged.head.flatMap { case (c, o) => o.answer.map(c.label -> _) }.toMap)
    val studies = judged.flatten.collect { case (s: Call.Study, _) => s }.distinct
    val realCounts = studies.flatMap { s =>
      val o = ledger.attempt(s"reference count for ${s.label}") {
        Seq(FlowMotifSearch.countInstances(spark, edges, s.motif, s.delta, s.phi).toDouble)
      }
      ledger.settle(o)
      o.answer.map(a => s.label -> a.head)
    }.toMap
    judged.foreach(r => Checks.judge(r, expected, realCounts).foreach(ledger.settle))
    studies.map(_.seed).distinct.foreach { s =>
      ledger.settle(ledger.attempt("permuteFlows multisets")(checkPermutation(s)))
    }
  }

  /** `permuteFlows` keeps the flow multiset and the `(src, dst, t)` multiset. */
  private def checkPermutation(s: Long): Seq[Double] = {
    def multisets(df: DataFrame) = {
      val rows = df.collect()
      (rows.map(_.getDouble(3)).sorted.toSeq,
        rows.map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).sorted.toSeq)
    }
    val (f0, k0) = multisets(edges.select("src", "dst", "t", "f"))
    val (f1, k1) = multisets(Randomizer.permuteFlows(edges, s).select("src", "dst", "t", "f"))
    if (f0 != f1) throw new AssertionError("permuteFlows changed the flow multiset")
    if (k0 != k1) throw new AssertionError("permuteFlows changed the (src, dst, t) multiset")
    Seq(f1.length.toDouble)
  }
}

object Bench {
  /** Input set-ups per run; setup_s counts their median. */
  val InputSetups = 3

  /** Per-layer metrics taken from the traced rounds, with their units. */
  val PerLayer: Seq[(String, String)] = Seq(
    "gt.s" -> "s", "gt.rows" -> "count", "gt.series_elems" -> "count", "pairs.s" -> "s",
    "p1.s" -> "s", "p1.matches" -> "count", "p1.stages" -> "count", "p1.shuffle_mb" -> "MB",
    "match_rows.s" -> "s", "attach.s" -> "s", "attach.clamped" -> "count",
    "attach.series_elems" -> "count", "match_rows.stages" -> "count", "match_rows.shuffle_mb" -> "MB",
    "p2.rows" -> "count", "p2.instances" -> "count", "p2.enum_s" -> "s", "p2.topk_s" -> "s",
    "p2.dp_s" -> "s", "p2.max_row_s" -> "s", "p2.max_row_share" -> "ratio",
    "query.stages" -> "count", "query.tasks" -> "count", "query.task_s" -> "s",
    "query.wait_s" -> "s", "query.shuffle_mb" -> "MB", "query.max_task_share" -> "ratio",
    "rand.s" -> "s", "rand.shuffle_mb" -> "MB", "rand.max_task_share" -> "ratio",
    "sig.s" -> "s", "sig.randomizations" -> "count")
}
