package repro.jobs

import java.io.ByteArrayOutputStream
import repro.SparkSpec
import repro.core.{FlowMotifSearch, MotifCatalog, StructuralMatcher, TimeSeriesGraph}
import repro.data.{InteractionGen, NetworkStats}

/** Each spark-submit job's `main`, run on the shared session at a tiny scale
  * factor: what it prints agrees with the library, and the session and its
  * cache are as the job found them.
  */
class JobsSpec extends SparkSpec {

  private val sf = "0.01"

  /** What `body` returns and prints to stdout, after checking that it leaves
    * the session running and nothing newly cached.
    */
  private def run[A](body: => A): (A, Seq[String]) = {
    val cached = spark.sparkContext.getPersistentRDDs.keySet
    val out = new ByteArrayOutputStream()
    val a = Console.withOut(out)(body)
    assert(!spark.sparkContext.isStopped, "a job stopped the session it did not start")
    assert(spark.sparkContext.getPersistentRDDs.keySet == cached)
    (a, out.toString("UTF-8").linesIterator.toSeq)
  }

  private def printed(main: Array[String] => Unit, args: String*): Seq[String] = run(main(args.toArray))._2

  test("MotifSearchJob prints countInstances") {
    val lines = printed(MotifSearchJob.main, "bitcoin", "M(3,2)", "600", "5", sf)
    val expected = FlowMotifSearch.countInstances(
      spark, InteractionGen.bitcoinLike(spark, sf.toDouble), MotifCatalog.M32, 600L, 5.0)
    assert(lines.exists(_.contains(s" instances=$expected ")), lines)
  }

  test("TopKJob's DP top-1 line equals its #1 flow") {
    val lines = printed(TopKJob.main, "facebook", "M(3,2)", "600", "3", sf)
    val first = lines.collectFirst { case l if l.startsWith("#  1 ") => l.split("flow=")(1).trim.split(' ')(0) }
    assert(first.nonEmpty, lines)
    assert(lines.contains(s"DP top-1 flow = ${first.get}"), lines)
  }

  test("Table3Job's rows are NetworkStats.stats of each network") {
    val (rows, lines) = run(Table3Job.table(spark, sf.toDouble))
    assert(rows.map(_._1) == InteractionGen.networks.map(_.label))
    for ((n, (_, s)) <- InteractionGen.networks.zip(rows)) {
      assert(s == NetworkStats.stats(InteractionGen.generate(spark, n.config(sf.toDouble))), n.label)
      assert(lines.exists(l => l.startsWith(n.label) && l.contains(s" ${s.edges} ")), lines)
    }
    assert(printed(Table3Job.main, sf) == lines)
  }

  test("Table4Job's counts are StructuralMatcher.matches over TimeSeriesGraph.pairs, for every motif and network") {
    val (rows, _) = run(Table4Job.table(spark, sf.toDouble))
    assert(rows.map(_._1) == InteractionGen.networks.map(_.label))
    for ((n, (_, counts)) <- InteractionGen.networks.zip(rows)) {
      val pairs = TimeSeriesGraph.pairs(InteractionGen.generate(spark, n.config(sf.toDouble)))
      val expected = MotifCatalog.all.map(m => (m.name, StructuralMatcher.matches(pairs, m).count()))
      assert(counts.map { case (motif, matches, _) => (motif, matches) } == expected, n.label)
    }
    assert(printed(Table4Job.main, sf).count(_.contains("matches=")) == 3 * MotifCatalog.all.length)
  }

  test("SignificanceJob prints one row per catalog motif and leaves nothing cached") {
    val lines = printed(SignificanceJob.main, "passenger", "900", "2", "2", sf)
    assert(lines.map(_.split(' ')(0)) == MotifCatalog.all.map(_.name), lines)
  }

  /** Each job's `main`, its usage line and arguments it runs with. */
  private val jobs: Seq[(Array[String] => Unit, String, Seq[String])] = Seq(
    (MotifSearchJob.main, "usage: MotifSearchJob <bitcoin|facebook|passenger> <motif> <delta> <phi> [sf]",
      Seq("bitcoin", "M(3,2)", "600", "5")),
    (TopKJob.main, "usage: TopKJob <dataset> <motif> <delta> <k> [sf]", Seq("facebook", "M(3,2)", "600", "3")),
    (SignificanceJob.main, "usage: SignificanceJob <dataset> <delta> <phi> <nRandom> [sf]",
      Seq("passenger", "900", "2", "2")),
    (Table3Job.main, "usage: Table3Job [sf]", Nil),
    (Table4Job.main, "usage: Table4Job [sf]", Nil))

  /** `main(args)` fails with `usage` and runs no Spark job on the way. */
  private def rejected(group: String, main: Array[String] => Unit, usage: String, args: Seq[String]): Unit = {
    spark.sparkContext.setJobGroup(group, group)
    try {
      val e = intercept[IllegalArgumentException](main(args.toArray))
      assert(e.getMessage.contains(usage), e.getMessage)
      assert(spark.sparkContext.statusTracker.getJobIdsForGroup(group).isEmpty, args)
    } finally spark.sparkContext.clearJobGroup()
    assert(!spark.sparkContext.isStopped)
  }

  test("a wrong argument count fails with the job's usage line before any Spark job runs") {
    for (((main, usage, args), i) <- jobs.zipWithIndex)
      rejected(s"job-args-$i", main, usage, if (args.nonEmpty) Seq("bitcoin") else Seq(sf, sf))
  }

  test("an argument that does not parse fails with the job's usage line; an unknown motif names the known ones") {
    for (((main, usage, args), i) <- jobs.zipWithIndex; (arg, at) <- args.zipWithIndex if arg.toDoubleOption.nonEmpty)
      rejected(s"job-number-$i-$at", main, usage, args.updated(at, "abc"))
    for (((main, _, args), i) <- jobs.zipWithIndex; at = args.indexOf("M(3,2)") if at >= 0)
      rejected(s"job-motif-$i", main, s"unknown motif M(9,9); known: ${MotifCatalog.all.map(_.name).mkString(", ")}",
        args.updated(at, "M(9,9)"))
  }

  test("a scale factor that is not a finite number > 0 fails with the job's usage line") {
    for (((main, usage, args), i) <- jobs.zipWithIndex; bad <- Seq("abc", "-1", "0", "NaN", "Infinity", "-Infinity"))
      rejected(s"job-sf-$i-$bad", main, usage, args :+ bad)
  }
}
