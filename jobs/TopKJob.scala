package repro.jobs

import repro.core.{MotifCatalog, TopKSearch}
import repro.data.InteractionGen

/** Top-k flow motif instances (Section 5) and the DP top-1 (Section 5.1).
  * Usage: spark-submit ... repro.jobs.TopKJob <dataset> <motif> <delta> <k> [sf]
  */
object TopKJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 4, "args: <dataset> <motif> <delta> <k> [sf]")
    val Array(dataset, motifName, deltaS, kS) = args.take(4)
    val sf = args.lift(4).map(_.toDouble).getOrElse(1.0)
    val spark = JobSession.create("TopK")
    try {
      val edges = InteractionGen.byName(spark, dataset, sf)
      val motif = MotifCatalog.byName(motifName)
      val top = TopKSearch.topK(spark, edges, motif, deltaS.toLong, kS.toInt)
      top.zipWithIndex.foreach { case (inst, i) =>
        println(f"#${i + 1}%3d flow=${inst.flow}%10.3f vs=${inst.vs.mkString(",")} " +
          s"span=[${inst.tStart},${inst.tEnd}]")
      }
      val dp = TopKSearch.maxFlowDP(spark, edges, motif, deltaS.toLong)
      println(f"DP top-1 flow = $dp%.3f")
    } finally spark.stop()
  }
}
