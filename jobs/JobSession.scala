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
}
