package repro.jobs

import repro.core.{FlowMotifSearch, MotifCatalog}
import repro.data.InteractionGen

/** Full flow-motif search on a synthetic dataset.
  * Usage: spark-submit ... repro.jobs.MotifSearchJob <bitcoin|facebook|passenger> <motif> <delta> <phi> [sf]
  */
object MotifSearchJob {
  def main(args: Array[String]): Unit =
    JobSession.launch("MotifSearchJob", "<bitcoin|facebook|passenger> <motif> <delta> <phi> [sf]", args) {
      case Seq(dataset, motif, delta, phi) => (dataset, MotifCatalog.byName(motif), delta.toLong, phi.toDouble)
    } { case (spark, (dataset, motif, delta, phi), sf) =>
      val edges = InteractionGen.byName(spark, dataset, sf)
      val t0 = System.nanoTime()
      val n = FlowMotifSearch.countInstances(spark, edges, motif, delta, phi)
      println(f"dataset=$dataset motif=${motif.name} delta=$delta phi=$phi " +
        f"instances=$n time=${(System.nanoTime() - t0) / 1e9}%.2fs")
    }
}
