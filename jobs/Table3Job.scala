package repro.jobs

import repro.data.{InteractionGen, NetworkStats}

/** Regenerates the paper's Table 3 (dataset statistics) on the synthetic
  * substitutes. Usage: spark-submit ... repro.jobs.Table3Job [sf]
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(1.0)
    val spark = JobSession.create("Table3")
    try {
      println(f"${"Dataset"}%-16s ${"#nodes"}%10s ${"#pairs"}%10s ${"#edges"}%10s ${"avg flow"}%10s")
      for ((name, label) <- InteractionGen.labels) {
        val s = NetworkStats.stats(InteractionGen.byName(spark, name, sf))
        println(f"$label%-16s ${s.nodes}%10d ${s.connectedPairs}%10d ${s.edges}%10d ${s.avgFlow}%10.3f")
      }
    } finally spark.stop()
  }
}
