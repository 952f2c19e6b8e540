package repro.jobs

import repro.core.{FlowMotifSearch, MotifCatalog}
import repro.data.InteractionGen

/** Full flow-motif search on a synthetic dataset.
  * Usage: spark-submit ... repro.jobs.MotifSearchJob <bitcoin|facebook|passenger> <motif> <delta> <phi> [sf]
  */
object MotifSearchJob {
  def main(args: Array[String]): Unit =
    JobSession.launch("MotifSearchJob", "<bitcoin|facebook|passenger> <motif> <delta> <phi> [sf]", args) {
      case (spark, Seq(dataset, motifName, deltaS, phiS), sf) =>
        val edges = InteractionGen.byName(spark, dataset, sf)
        val motif = MotifCatalog.byName(motifName)
        val t0 = System.nanoTime()
        val n = FlowMotifSearch.countInstances(spark, edges, motif, deltaS.toLong, phiS.toDouble)
        println(f"dataset=$dataset motif=$motifName delta=$deltaS phi=$phiS " +
          f"instances=$n time=${(System.nanoTime() - t0) / 1e9}%.2fs")
    }
}
