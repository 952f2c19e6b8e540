package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{FlowMotifSearch, Index, MotifCatalog, StructuralMatcher}
import repro.data.InteractionGen

/** Regenerates the paper's Table 4 (structural matches + phase-P1 runtime per
  * motif per dataset), printed as it is computed; the bench runs the same
  * `table`. `G_T` is built once per network and not timed: the paper times P1
  * alone, so a motif's time is its walk of `G_T`.
  * Usage: spark-submit ... repro.jobs.Table4Job [sf]
  */
object Table4Job {
  def table(spark: SparkSession, sf: Double): Seq[(String, Seq[(String, Long, Double)])] =
    for (n <- InteractionGen.networks) yield {
      val gt = Index(FlowMotifSearch.checkedEdges(InteractionGen.generate(spark, n.config(sf))))
      n.label -> MotifCatalog.all.map { m =>
        val t0 = System.nanoTime()
        val matches = StructuralMatcher.aggregate(spark.sparkContext, gt, m, 0L)((n, _, _, _) => n + 1, _ + _)
        val secs = (System.nanoTime() - t0) / 1e9
        println(f"${n.label}%-16s ${m.name}%-10s matches=$matches%10d  time=$secs%8.2fs")
        (m.name, matches, secs)
      }
    }

  def main(args: Array[String]): Unit =
    JobSession.launch("Table4Job", "[sf]", args)(identity)((spark, _, sf) => table(spark, sf))
}
