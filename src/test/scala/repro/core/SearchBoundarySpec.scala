package repro.core

import org.apache.spark.{BlockManagerAccess, JobExecutionStatus, SparkJobInfo}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, rand}
import org.apache.spark.sql.types._
import repro.{SparkSpec, TestGraphs}
import repro.baseline.JoinBaseline
import repro.data.{InteractionGen, NetworkStats, Randomizer}
import repro.stats.Significance

/** What every search entry point promises at its boundary: bad input fails
  * fast with a message naming the column and the value, results do not
  * depend on partitioning or input order, and nothing stays cached.
  */
class SearchBoundarySpec extends SparkSpec {

  private val motif = MotifCatalog.M32

  /** Each entry point, as a call on `(edges, δ, φ)`; top-k and the DP take no φ. */
  private val entryPoints: Seq[(String, (DataFrame, Long, Double) => Any)] = Seq(
    "instances" -> ((e, d, phi) => FlowMotifSearch.instances(spark, e, motif, d, phi).count()),
    "countInstances" -> ((e, d, phi) => FlowMotifSearch.countInstances(spark, e, motif, d, phi)),
    "topK" -> ((e, d, _) => TopKSearch.topK(spark, e, motif, d, 3)),
    "maxFlowDP" -> ((e, d, _) => TopKSearch.maxFlowDP(spark, e, motif, d)),
    "study" -> ((e, d, phi) => Significance.study(spark, e, motif, d, phi, nRandom = 1)),
    "JoinBaseline.count" -> ((e, d, phi) => JoinBaseline.count(spark, e, motif, d, phi))
  )

  private val withoutPhi = Set("topK", "maxFlowDP")

  private val good = TestGraphs.randomEdges(5, 40, 40, 5, seed = 81)

  private val schema = StructType(Seq(
    StructField("src", LongType), StructField("dst", LongType),
    StructField("t", LongType), StructField("f", DoubleType)))

  /** Bitcoin-like at sf 1, 42.6K interactions: above the size at which an aggregate walks on the driver. */
  private lazy val largeRows = InteractionGen.bitcoinLike(spark, 1.0).collect().toSeq

  /** The large input, in `partitions` input partitions. */
  private def large(partitions: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(largeRows, partitions), schema)

  /** The good edges plus one row `(src, dst, t, f)`, any field possibly null. */
  private def withRow(bad: Row): DataFrame = {
    val rows = good.map(e => Row(e.src, e.dst, e.t, e.f)) :+ bad
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
  }

  /** `call` fails with `message` and runs no Spark job on the way. */
  private def rejectedBeforeAnyJob(group: String, message: String)(call: => Any): Unit = {
    spark.sparkContext.setJobGroup(group, group)
    try {
      val e = intercept[IllegalArgumentException](call)
      assert(e.getMessage.contains(message), e.getMessage)
      assert(spark.sparkContext.statusTracker.getJobIdsForGroup(group).isEmpty)
    } finally spark.sparkContext.clearJobGroup()
  }

  for ((name, call) <- entryPoints) {
    test(s"$name rejects δ < 0 before any Spark job runs") {
      rejectedBeforeAnyJob(s"negative-delta-$name", "delta must be non-negative, got -1") {
        call(TestGraphs.toDf(spark, good), -1L, 1.0)
      }
    }

    if (!withoutPhi(name)) test(s"$name rejects φ = NaN before any Spark job runs") {
      rejectedBeforeAnyJob(s"nan-phi-$name", "phi must be a number, got NaN") {
        call(TestGraphs.toDf(spark, good), 10L, Double.NaN)
      }
    }

    test(s"$name checks column types before any Spark job runs") {
      val cases = Seq(
        ("src", "int") -> "column src must be bigint, got int",
        ("dst", "string") -> "column dst must be bigint, got string",
        ("t", "int") -> "column t must be bigint, got int",
        ("f", "float") -> "column f must be double, got float")
      for (((column, tpe), message) <- cases) {
        val edges = TestGraphs.toDf(spark, good).withColumn(column, col(column).cast(tpe))
        rejectedBeforeAnyJob(s"column-type-$name-$column", message)(call(edges, 10L, 1.0))
      }
    }

    test(s"$name rejects null columns and flows that are not positive and finite") {
      val cases = Seq(
        Row(null, 2L, 5L, 1.0) -> "column src must not be null",
        Row(1L, null, 5L, 1.0) -> "column dst must not be null",
        Row(1L, 2L, null, 1.0) -> "column t must not be null",
        Row(1L, 2L, 5L, null) -> "column f must not be null",
        Row(1L, 2L, 5L, 0.0) -> "column f must be positive and finite, got f=0.0",
        Row(1L, 2L, 5L, -2.5) -> "column f must be positive and finite, got f=-2.5",
        Row(1L, 2L, 5L, Double.NaN) -> "column f must be positive and finite, got f=NaN",
        Row(1L, 2L, 5L, Double.PositiveInfinity) -> "column f must be positive and finite, got f=Infinity")
      for ((bad, message) <- cases) {
        val e = intercept[IllegalArgumentException](call(withRow(bad), 10L, 1.0))
        assert(e.getMessage.contains(message), s"$bad: ${e.getMessage}")
      }
    }

    test(s"$name checks self-loop rows before dropping them") {
      val cases = Seq(
        Row(3L, 3L, 5L, -1.0) -> "column f must be positive and finite, got f=-1.0",
        Row(3L, 3L, null, 1.0) -> "column t must not be null, got t=null on edge (3, 3)",
        Row(3L, 3L, 5L, null) -> "column f must not be null, got f=null on edge (3, 3)")
      for ((bad, message) <- cases) {
        val e = intercept[IllegalArgumentException](call(withRow(bad), 10L, 1.0))
        assert(e.getMessage.contains(message), s"$bad: ${e.getMessage}")
      }
    }
  }

  test("the first bad row in partition order is the one reported, self-loops included") {
    /** One input partition per argument, each with the rows in the order given. */
    def partitioned(parts: Seq[Row]*): DataFrame =
      spark.createDataFrame(spark.sparkContext.parallelize(parts, parts.length).flatMap(identity), schema)
    val rows = good.map(e => Row(e.src, e.dst, e.t, e.f))
    val (lowF, nullSrc) = (Row(1L, 2L, 5L, -1.0), Row(null, 2L, 5L, 1.0))
    val loops = Seq(Row(3L, 3L, 4L, 1.0), Row(3L, 3L, null, 1.0), Row(4L, 4L, 6L, 2.0))
    val cases = Seq(
      partitioned(rows.take(10), rows.slice(10, 20) :+ lowF, nullSrc +: rows.drop(20)) ->
        "requirement failed: column f must be positive and finite, got f=-1.0 at t=5",
      partitioned(rows.take(10), rows.slice(10, 20) :+ nullSrc, lowF +: rows.drop(20)) ->
        "requirement failed: column src must not be null, got src=null",
      partitioned(rows.take(20) ++ loops, rows.drop(20) :+ lowF) ->
        "requirement failed: column t must not be null, got t=null on edge (3, 3)")
    val calls = entryPoints :+
      ("permuteFlows" -> ((e: DataFrame, _: Long, _: Double) => Randomizer.permuteFlows(e, 1)))
    for ((df, message) <- cases; (name, call) <- calls) {
      val e = intercept[IllegalArgumentException](call(df, 10L, 1.0))
      assert(e.getMessage == message, name)
    }
  }

  test("an input without src or t is rejected before any Spark job runs, naming the column") {
    val calls = entryPoints ++ Seq[(String, (DataFrame, Long, Double) => Any)](
      "permuteFlows" -> ((e, _, _) => Randomizer.permuteFlows(e, 1)),
      "NetworkStats.stats" -> ((e, _, _) => NetworkStats.stats(e)))
    for (column <- Seq("src", "t"); (name, call) <- calls)
      rejectedBeforeAnyJob(s"missing-$column-$name", s"field `$column`") {
        call(TestGraphs.toDf(spark, good).drop(column), 10L, 1.0)
      }
  }

  test("matches checks its pair column types before any Spark job runs") {
    val pairs = TimeSeriesGraph.pairs(TestGraphs.toDf(spark, good))
    for (column <- Seq("src", "dst"); tpe <- Seq("int", "string"))
      rejectedBeforeAnyJob(s"matches-column-type-$column-$tpe", s"column $column must be bigint, got $tpe") {
        StructuralMatcher.matches(pairs.withColumn(column, col(column).cast(tpe)), motif)
      }
  }

  test("timestamps spanning more than Long.MaxValue: the baseline counts as the search, nothing throws") {
    import TestGraphs.Edge
    val probe = TestGraphs.toDf(spark, Vector(Edge(1, 2, Long.MinValue, 1.0), Edge(2, 3, Long.MaxValue, 1.0)))
    val nearMax = TestGraphs.toDf(spark, Vector(Edge(1, 2, Long.MaxValue - 5, 1.0), Edge(2, 3, Long.MaxValue, 1.0)))
    val onePair = TestGraphs.toDf(spark, Vector(Edge(1, 2, Long.MinValue, 1.0), Edge(1, 2, Long.MaxValue, 1.0)))
    for (d <- Seq(0L, 10L, Long.MaxValue)) {
      val search = FlowMotifSearch.countInstances(spark, probe, motif, d, 0.5)
      assert(JoinBaseline.count(spark, probe, motif, d, 0.5) == search, s"δ = $d")
      for ((_, call) <- entryPoints) call(probe, d, 1.0)
      // Every span on the pair is 0 or 2^64 - 1, so only the one-timestamp runs are within δ.
      val runs = JoinBaseline.quintuples(spark, onePair, d, 0.5).collect().map(q => (q.ts, q.te)).sorted.toSeq
      assert(runs == Seq((Long.MinValue, Long.MinValue), (Long.MaxValue, Long.MaxValue)), s"δ = $d")
    }
    assert(FlowMotifSearch.countInstances(spark, nearMax, motif, 10, 0.5) == 1)
    assert(JoinBaseline.count(spark, nearMax, motif, 10, 0.5) == 1)
  }

  test("topK rejects k < 1 before any Spark job runs") {
    rejectedBeforeAnyJob("k-zero", "k must be >= 1, got 0") {
      TopKSearch.topK(spark, TestGraphs.toDf(spark, good), motif, 10L, 0)
    }
  }

  test("study rejects nRandom < 1 before any Spark job runs") {
    rejectedBeforeAnyJob("no-randomizations", "nRandom must be >= 1, got 0") {
      Significance.study(spark, TestGraphs.toDf(spark, good), motif, 10L, 1.0, nRandom = 0)
    }
  }

  test("at δ = Long.MaxValue every entry point answers as at δ = max t - min t") {
    val chain = Vector(TestGraphs.Edge(1, 2, 10, 5), TestGraphs.Edge(2, 3, 20, 5), TestGraphs.Edge(2, 3, 30, 1))
    for (edges <- Seq(good, chain)) {
      val (df, ts) = (TestGraphs.toDf(spark, edges), edges.map(_.t))
      assert(FlowMotifSearch.countInstances(spark, df, motif, Long.MaxValue, 1.0) > 0)
      for ((name, call) <- entryPoints)
        assert(call(df, Long.MaxValue, 1.0) == call(df, ts.max - ts.min, 1.0), s"$name on ${edges.length} edges")
    }
  }

  test("count, top-k flows and DP top-1 do not depend on shuffle partitions or input order") {
    val conf = spark.conf
    val saved = conf.get("spark.sql.shuffle.partitions")
    def answers(edges: Seq[TestGraphs.Edge], partitions: Int, m: Motif) = {
      conf.set("spark.sql.shuffle.partitions", partitions.toLong)
      val df = TestGraphs.toDf(spark, edges)
      (FlowMotifSearch.countInstances(spark, df, m, 12, 2.0),
       TopKSearch.topK(spark, df, m, 12, 5).map(_.flow),
       TopKSearch.maxFlowDP(spark, df, m, 12),
       JoinBaseline.count(spark, df, m, 12, 2.0))
    }
    try {
      for ((m, seed) <- Seq(MotifCatalog.M32 -> 91L, MotifCatalog.M33 -> 92L, MotifCatalog.M44B -> 93L)) {
        val edges = TestGraphs.randomEdges(5, 60, 40, 5, seed)
        val shuffled = new scala.util.Random(seed).shuffle(edges)
        val expected = answers(edges, 64, m)
        assert(expected._1 > 0, s"${m.name}: fixture should have instances")
        for ((es, p) <- Seq(edges -> 1, shuffled -> 1, shuffled -> 64))
          assert(answers(es, p, m) == expected, s"${m.name} with $p partitions")
      }
    } finally conf.set("spark.sql.shuffle.partitions", saved)
  }

  /** The jobs `body` runs, every one finished. The status tracker hears of
    * jobs in order, so once a marker job run after `body` reports success,
    * so has every job of `body`.
    */
  private def jobsOf(group: String)(body: => Any): Seq[SparkJobInfo] = {
    val sc = spark.sparkContext
    def run(g: String)(call: => Any): Unit = {
      sc.setJobGroup(g, g)
      try call finally sc.clearJobGroup()
    }
    def infos(g: String) = sc.statusTracker.getJobIdsForGroup(g).toSeq.flatMap(sc.statusTracker.getJobInfo)
    run(group)(body)
    run(s"$group-marker")(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (!infos(s"$group-marker").exists(_.status == JobExecutionStatus.SUCCEEDED) && System.nanoTime() < deadline)
      Thread.sleep(20)
    infos(group)
  }

  test("countInstances, topK, maxFlowDP, study and permuteFlows run only single-stage jobs (no shuffle)") {
    val small = spark.createDataFrame(spark.sparkContext.parallelize(good, 2))
    for ((df, perSearch) <- Seq(small -> 1, large(4) -> 2)) {
      val jobs = jobsOf(s"no-shuffle-$perSearch") {
        FlowMotifSearch.countInstances(spark, df, motif, 10, 1.0)
        TopKSearch.topK(spark, df, motif, 10, 3)
        TopKSearch.maxFlowDP(spark, df, motif, 10)
        Significance.study(spark, df, motif, 10, 1.0, nRandom = 2)
        Randomizer.permuteFlows(df, 1).collect()
      }
      // The collect per search and per study, the walk's job above the bound, one collect for permuteFlows.
      assert(jobs.length == 4 * perSearch + 1, s"jobs: ${jobs.map(_.jobId)}")
      for (j <- jobs) {
        assert(j.status == JobExecutionStatus.SUCCEEDED, s"job ${j.jobId} is ${j.status}")
        assert(j.stageIds.length == 1, s"job ${j.jobId} has stages ${j.stageIds.toSeq}")
      }
    }
  }

  /** The entry points and the two calls beside them that start from the same checked collect. */
  private val collectCalls = entryPoints ++ Seq[(String, (DataFrame, Long, Double) => Any)](
    "permuteFlows" -> ((e, _, _) => Randomizer.permuteFlows(e, 1)),
    "NetworkStats.stats" -> ((e, _, _) => NetworkStats.stats(e)))

  /** Partitions enough that `Consecutive` gives every task a run of at least four, on any number of cores. */
  private def manyPartitions = 4 * math.max(4, spark.sparkContext.defaultParallelism)

  /** `df` cached, so Spark knows its size. */
  private def cached(df: DataFrame): DataFrame = { df.cache().count(); df }

  /** The task count of each stage of the first job `call` runs: every entry point collects first. */
  private def collectTasks(group: String)(call: => Any): Seq[Int] = {
    val sc = spark.sparkContext
    jobsOf(group)(call).minBy(_.jobId).stageIds.toSeq.flatMap(sc.statusTracker.getStageInfo).map(_.numTasks)
  }

  test("every entry point collects a small input in one stage of min(input partitions, defaultParallelism) tasks") {
    val sc = spark.sparkContext
    for (p <- Seq(1, 4, 7, 16, manyPartitions).distinct) {
      val df = cached(spark.createDataFrame(sc.parallelize(good, p)))
      try for ((name, call) <- collectCalls) {
        val tasks = collectTasks(s"one-wave-$p-$name")(call(df, 10L, 1.0))
        assert(tasks == Seq(math.min(p, sc.defaultParallelism)), s"$name at $p partitions: tasks per stage $tasks")
      } finally df.unpersist()
    }
  }

  test("an input Spark cannot size, or sizes above 1 MB, is collected with one task per partition") {
    val p = manyPartitions
    val sized = spark.range(0, 200000, 1, p).select(col("id").as("src"), (col("id") + 1).as("dst"), col("id").as("t"),
      (col("id") % 7 + 1).cast(DoubleType).as("f"))
    assert(sized.queryExecution.optimizedPlan.stats.sizeInBytes > (1 << 20))
    for ((name, df) <- Seq("an RDD's" -> large(p), "200K rows of spark.range" -> sized)) {
      val tasks = collectTasks(s"per-partition-$name")(FlowMotifSearch.checkedEdges(df))
      assert(tasks == Seq(p), s"$name input: tasks per stage $tasks")
    }
    val count = collectTasks("per-partition-count")(FlowMotifSearch.countInstances(spark, large(p), motif, 600, 5))
    assert(count == Seq(p), s"countInstances: tasks per stage $count")
  }

  test("flowVectors' extra columns are rand(seed + r) as the input's own partitions draw it, row for row") {
    import Ordering.Double.TotalOrdering
    val df = cached(spark.createDataFrame(spark.sparkContext.parallelize(TestGraphs.randomEdges(9, 300, 60, 5, 84),
      manyPartitions)))
    val (seed, n) = (5L, 2)
    val (e, _) = Randomizer.flowVectors(df, seed, n)
    val drawn = df.select(Seq(col("src"), col("dst"), col("t"), col("f")) ++ (0 to n).map(r => rand(seed + r)): _*)
    val expected = drawn.collect().toSeq // randomEdges repeats no (src, dst, t), so the order is total
      .map(r => ((r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3)), (0 to n).map(j => r.getDouble(4 + j))))
      .sortBy(_._1)
    try {
      assert(e.length == 300)
      assert((0 until e.length).map(i => ((e.src(i), e.dst(i), e.t(i), e.f(i)), e.extra.toSeq.map(_(i)))) == expected)
    } finally df.unpersist()
  }

  test("the first bad row in partition order is reported, two bad partitions per task") {
    val (rows, p) = (good.map(e => Row(e.src, e.dst, e.t, e.f)), manyPartitions)
    /** `p` input partitions of up to two good rows each, partition i followed by `bad(i)`; cached, so it is small. */
    def withBad(bad: Map[Int, Row]): DataFrame = {
      val parts = (0 until p).map(i => rows.slice(2 * i, 2 * i + 2) ++ bad.get(i))
      cached(spark.createDataFrame(spark.sparkContext.parallelize(parts, p).flatMap(identity), schema))
    }
    val (lowF, nullSrc, nullT) = (Row(1L, 2L, 5L, -1.0), Row(null, 2L, 5L, 1.0), Row(3L, 3L, null, 1.0))
    val lowFMessage = "requirement failed: column f must be positive and finite, got f=-1.0 at t=5"
    val nullTMessage = "requirement failed: column t must not be null, got t=null on edge (3, 3)"
    // Each task reads a run of at least four partitions; on two or more cores 6 and 7 share a run and 12 is in a
    // later one.
    val cases = Seq(
      Map(6 -> lowF, 7 -> nullSrc, 12 -> nullT) -> lowFMessage,
      Map(6 -> nullT, 7 -> nullSrc, 12 -> lowF) -> nullTMessage,
      Map(7 -> nullSrc, 12 -> lowF) -> "requirement failed: column src must not be null, got src=null")
    for ((bad, message) <- cases) {
      val df = withBad(bad)
      try for ((name, call) <- collectCalls) {
        val e = intercept[IllegalArgumentException](call(df, 10L, 1.0))
        assert(e.getMessage == message, s"$name, bad rows in partitions ${bad.keys.toSeq.sorted}")
      } finally df.unpersist()
    }
  }

  test("a call reads the input's cache as it is now: re-cached after clearCache, same answers, one RDD cached") {
    val sc = spark.sparkContext
    val reads = sc.longAccumulator("input rows computed")
    val df = spark.createDataFrame(sc.parallelize(good, 4).map { e => reads.add(1); e })
    val before = sc.getRDDStorageInfo.map(_.id).toSet
    def answers = (FlowMotifSearch.countInstances(spark, df, motif, 10, 1.0), TopKSearch.topK(spark, df, motif, 10, 3),
      TopKSearch.maxFlowDP(spark, df, motif, 10), Significance.study(spark, df, motif, 10, 1.0, nRandom = 2),
      NetworkStats.stats(df))
    try {
      df.cache().count()
      val first = answers
      spark.catalog.clearCache()
      df.cache().count()
      reads.reset()
      assert(answers == first)
      assert(reads.value == 0, "a call computed the input again instead of reading its cache")
      val cached = sc.getRDDStorageInfo.filterNot(r => before(r.id))
      assert(cached.length == 1, cached.map(_.name).toSeq)
    } finally df.unpersist()
  }

  test("the large input is above the driver walk's bound, the small one below") {
    val cells = (df: DataFrame) => Index(FlowMotifSearch.checkedEdges(df)).cells
    assert(cells(large(4)) >= StructuralMatcher.DriverCells)
    assert(cells(TestGraphs.toDf(spark, good)) * 6 < StructuralMatcher.DriverCells) // a study at R = 5 too
  }

  test("a search or study runs 1 job below the bound and 2 above, whatever R") {
    val small = spark.createDataFrame(spark.sparkContext.parallelize(good, 2))
    val calls = Seq[(String, DataFrame => Any)](
      "countInstances" -> (FlowMotifSearch.countInstances(spark, _, motif, 10, 1.0)),
      "topK" -> (TopKSearch.topK(spark, _, motif, 10, 3)),
      "maxFlowDP" -> (TopKSearch.maxFlowDP(spark, _, motif, 10)),
      "study R = 1" -> (Significance.study(spark, _, motif, 10, 1.0, nRandom = 1)),
      "study R = 5" -> (Significance.study(spark, _, motif, 10, 1.0, nRandom = 5)))
    for ((df, expected) <- Seq(small -> 1, large(4) -> 2); (name, call) <- calls) {
      val jobs = jobsOf(s"jobs-$expected-$name")(call(df))
      assert(jobs.length == expected, s"$name: jobs ${jobs.map(_.jobId)}")
    }
  }

  test("above the bound the aggregates agree with instances, at 1, 4 or 7 partitions") {
    val (d, phi) = (600L, 5.0)
    val answers = for (p <- Seq(1, 4, 7)) yield {
      val df = large(p)
      val count = FlowMotifSearch.countInstances(spark, df, motif, d, phi)
      assert(count == FlowMotifSearch.instances(spark, df, motif, d, phi).count(), s"$p partitions")
      val all = FlowMotifSearch.instances(spark, df, motif, d, 0.0).collect().sorted(TopKEnumerator.rowOrder)
      val top = for (k <- Seq(10, 100)) yield TopKSearch.topK(spark, df, motif, d, k)
      for ((t, k) <- top.zip(Seq(10, 100))) assert(t == all.take(k).toSeq, s"k = $k, $p partitions")
      val dp = TopKSearch.maxFlowDP(spark, df, motif, d)
      assert(math.abs(dp - TopKSearch.topK(spark, df, motif, d, 1).head.flow) < 1e-9, s"$p partitions")
      // The random counts depend on the input's partitions (Randomizer.flowVectors); the real count may not.
      val real = Significance.study(spark, df, motif, d, phi, nRandom = 2).real
      assert(real == count, s"$p partitions")
      (count, top, dp)
    }
    assert(answers.distinct.length == 1, answers.map(a => (a._1, a._3)))
  }

  test("above the bound the aggregates destroy the index they broadcast") {
    val sc = spark.sparkContext
    def indexBlocks = BlockManagerAccess.broadcastValues(sc).collect { case (id, _: Index) => id }.toSet
    val df = large(4)
    val before = indexBlocks
    FlowMotifSearch.countInstances(spark, df, motif, 600, 5.0)
    TopKSearch.topK(spark, df, motif, 600, 3)
    TopKSearch.maxFlowDP(spark, df, motif, 600)
    Significance.study(spark, df, motif, 600, 5.0, nRandom = 1)
    // A destroyed broadcast's blocks are removed asynchronously.
    val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
    while (!indexBlocks.subsetOf(before) && System.nanoTime() < deadline) Thread.sleep(20)
    assert(indexBlocks.subsetOf(before), s"left: ${indexBlocks -- before}")
  }

  test("countInstances, topK, maxFlowDP and study leave nothing cached") {
    val df = TestGraphs.toDf(spark, good)
    val before = spark.sparkContext.getPersistentRDDs.keySet
    FlowMotifSearch.countInstances(spark, df, motif, 10, 1.0)
    TopKSearch.topK(spark, df, motif, 10, 3)
    TopKSearch.maxFlowDP(spark, df, motif, 10)
    Significance.study(spark, df, motif, 10, 1.0, nRandom = 1)
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
  }
}
