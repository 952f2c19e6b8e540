package repro.jobs

import repro.core.{MotifCatalog, StructuralMatcher, TimeSeriesGraph}
import repro.data.InteractionGen

/** Regenerates the paper's Table 4 (structural matches + phase-P1 runtime per
  * motif per dataset). Usage: spark-submit ... repro.jobs.Table4Job [sf]
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(1.0)
    val spark = JobSession.create("Table4")
    try {
      for ((name, label) <- InteractionGen.labels) {
        val pairs = TimeSeriesGraph.pairs(InteractionGen.byName(spark, name, sf)).cache()
        pairs.count() // materialize input once; time only the matching
        println(s"== $label ==")
        for (m <- MotifCatalog.all) {
          val t0 = System.nanoTime()
          val n = StructuralMatcher.matches(pairs, m).count()
          val secs = (System.nanoTime() - t0) / 1e9
          println(f"${m.name}%-10s matches=$n%10d  time=$secs%8.2fs")
        }
        pairs.unpersist()
      }
    } finally spark.stop()
  }
}
