package repro.jobs

import repro.core.{MotifCatalog, TopKSearch}
import repro.data.InteractionGen

/** Top-k flow motif instances (Section 5) and the DP top-1 (Section 5.1).
  * Usage: spark-submit ... repro.jobs.TopKJob <dataset> <motif> <delta> <k> [sf]
  */
object TopKJob {
  def main(args: Array[String]): Unit =
    JobSession.launch("TopKJob", "<dataset> <motif> <delta> <k> [sf]", args) {
      case Seq(dataset, motif, delta, k) => (dataset, MotifCatalog.byName(motif), delta.toLong, k.toInt)
    } { case (spark, (dataset, motif, delta, k), sf) =>
      val edges = InteractionGen.byName(spark, dataset, sf)
      val top = TopKSearch.topK(spark, edges, motif, delta, k)
      top.zipWithIndex.foreach { case (inst, i) =>
        println(f"#${i + 1}%3d flow=${inst.flow}%10.3f vs=${inst.vs.mkString(",")} " +
          s"span=[${inst.tStart},${inst.tEnd}]")
      }
      val dp = TopKSearch.maxFlowDP(spark, edges, motif, delta)
      println(f"DP top-1 flow = $dp%.3f")
    }
}
