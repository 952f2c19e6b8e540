package repro.perfbench

import java.lang.management.ManagementFactory
import repro.jobs.JobSession

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints notes, then every metric by name with its unit, and as its last
  * line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { Console.err.println(s"perfbench: $msg"); sys.exit(2) }
    val known = Workloads.all.map(_.name)
    val w = opts.get("workload").flatMap(Workloads.byName)
      .getOrElse(fail(s"--workload must be one of ${known.mkString(", ")}"))
    val seed = opts.get("seed").fold(w.defaultSeed)(_.toLongOption.getOrElse(fail("--seed must be an integer")))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(fail("--seconds must be > 0"))
    val trace = opts.get("trace") match {
      case Some("1") => true
      case Some("0") | None => false
      case Some(other) => fail(s"--trace must be 0 or 1, not $other")
    }

    // The same session the job entry points build: Spark's default broadcast,
    // AQE and shuffle-partition settings; the master comes from spark.master.
    val spark = JobSession.create(s"perfbench ${w.name}")
    try {
      val sessionS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
      val cores = spark.sparkContext.defaultParallelism
      val conf = spark.conf
      println(s"perfbench workload=${w.name} seed=$seed default_seed=${w.defaultSeed} study_seed=${Workloads.StudySeed} " +
        s"seconds=$seconds trace=${if (trace) 1 else 0}")
      println(s"code git=${sys.props.getOrElse("perfbench.git", "none")} sources=${sys.props.getOrElse("perfbench.sources", "none")}")
      println(s"spark master=${spark.sparkContext.master} N=$cores version=${spark.version} " +
        Seq("spark.sql.autoBroadcastJoinThreshold", "spark.sql.adaptive.enabled",
          "spark.sql.adaptive.coalescePartitions.enabled", "spark.sql.shuffle.partitions")
          .map(k => s"$k=${conf.get(k)}").mkString(" "))

      val r = new Bench(spark, w, seed, cores).run(seconds, trace, sessionS)
      r.notes.foreach(println)
      r.metrics.foreach(m => println(f"${m.name}%-24s ${m.value}%.6f ${m.unit}"))
      println(s"failed_frac ${r.failed}/${r.attempted}")
      val metrics = r.metrics.map(m => s""""${m.name}": {"value": ${json(m.value)}, "unit": "${m.unit}"}""")
      println(s"""{"correct": ${r.failed == 0}, "attempted": ${r.attempted}, "failed": ${r.failed}, """ +
        s""""metrics": {${metrics.mkString(", ")}}}""")
    } finally spark.stop()
  }

  /** A JSON number; the benchmark's metrics are finite, but be safe. */
  private def json(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString
}
