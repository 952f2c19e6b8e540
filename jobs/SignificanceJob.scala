package repro.jobs

import repro.core.MotifCatalog
import repro.data.InteractionGen
import repro.stats.Significance

/** Motif significance via flow-permuted randomizations (Section 6.3/Fig 14), at Fig. 14's study seed.
  * Usage: spark-submit ... repro.jobs.SignificanceJob <dataset> <delta> <phi> <nRandom> [sf]
  */
object SignificanceJob {
  def main(args: Array[String]): Unit =
    JobSession.launch("SignificanceJob", "<dataset> <delta> <phi> <nRandom> [sf]", args) {
      case Seq(dataset, delta, phi, nRandom) => (dataset, delta.toLong, phi.toDouble, nRandom.toInt)
    } { case (spark, (dataset, delta, phi, nRandom), sf) =>
      val edges = InteractionGen.byName(spark, dataset, sf).cache()
      try for (m <- MotifCatalog.all) {
        val s = Significance.study(spark, edges, m, delta, phi, nRandom, seed = 1234)
        println(f"${m.name}%-10s real=${s.real}%8d mean=${s.mean}%10.1f std=${s.std}%8.1f " +
          f"z=${s.z}%8.2f p=${s.empiricalP}%.2f")
      } finally edges.unpersist()
    }
}
