package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for job entrypoints: under spark-submit the master
  * comes from the CLI (`spark.master` system property); under `sbt runMain`
  * fall back to local[*] (override with SPARK_MASTER).
  */
object JobSession {
  def create(appName: String): SparkSession = {
    val builder = SparkSession.builder().appName(appName)
    if (sys.props.contains("spark.master")) builder.getOrCreate()
    else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
  }

  /** Every job's `main`: `run(spark, parse(arguments), sf)` once `args` fits `usage` (one argument per `<…>`,
    * then an optional finite sf > 0, default 1.0) and parses. A running session is kept; one started is stopped. */
  def launch[A](job: String, usage: String, args: Array[String])(parse: Seq[String] => A)(
      run: (SparkSession, A, Double) => Unit): Unit = {
    val n = usage.split(' ').count(_.startsWith("<"))
    val sf = args.lift(n).fold(Option(1.0))(_.toDoubleOption).filter(s => s > 0 && !s.isInfinite)
    val parsed = Option.when((args.length == n || args.length == n + 1) && sf.nonEmpty)(args.take(n).toSeq)
      .flatMap(a => try Some(parse(a)) catch { case _: NumberFormatException => None })
    require(parsed.nonEmpty, s"usage: $job $usage (sf: finite, > 0)")
    val running = SparkSession.getDefaultSession
    val spark = running.getOrElse(create(job))
    try run(spark, parsed.get, sf.get) finally if (running.isEmpty) spark.stop()
  }
}
