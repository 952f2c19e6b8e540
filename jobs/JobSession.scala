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

  /** Every job's `main`: `run(spark, arguments, sf)` once `args` fits `usage` (one argument per `<…>`, then
    * an optional finite sf > 0, default 1.0). A running session is used and left running; one started is stopped. */
  def launch(job: String, usage: String, args: Array[String])(run: (SparkSession, Seq[String], Double) => Unit): Unit = {
    val n = usage.split(' ').count(_.startsWith("<"))
    val sf = args.lift(n).fold(Option(1.0))(_.toDoubleOption).filter(s => s > 0 && !s.isInfinite)
    require((args.length == n || args.length == n + 1) && sf.nonEmpty, s"usage: $job $usage (sf: finite, > 0)")
    val running = SparkSession.getDefaultSession
    val spark = running.getOrElse(create(job))
    try run(spark, args.take(n).toSeq, sf.get) finally if (running.isEmpty) spark.stop()
  }
}
