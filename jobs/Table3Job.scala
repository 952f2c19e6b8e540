package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.{InteractionGen, NetworkStats}

/** Regenerates the paper's Table 3 (dataset statistics) on the synthetic
  * substitutes, one row per network, printed as it is computed; the bench
  * runs the same `table`. Usage: spark-submit ... repro.jobs.Table3Job [sf]
  */
object Table3Job {
  def table(spark: SparkSession, sf: Double): Seq[(String, NetworkStats.Stats)] = {
    println(f"${"Dataset"}%-16s ${"#nodes"}%10s ${"#pairs"}%10s ${"#edges"}%10s ${"avg flow"}%10s")
    for (n <- InteractionGen.networks) yield {
      val s = NetworkStats.stats(InteractionGen.generate(spark, n.config(sf)))
      println(f"${n.label}%-16s ${s.nodes}%10d ${s.connectedPairs}%10d ${s.edges}%10d ${s.avgFlow}%10.3f")
      n.label -> s
    }
  }

  def main(args: Array[String]): Unit =
    JobSession.launch("Table3Job", "[sf]", args)(identity)((spark, _, sf) => table(spark, sf))
}
