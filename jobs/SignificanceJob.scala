package repro.jobs

import repro.core.MotifCatalog
import repro.data.InteractionGen
import repro.stats.Significance

/** Motif significance via flow-permuted randomizations (Section 6.3/Fig 14).
  * Usage: spark-submit ... repro.jobs.SignificanceJob <dataset> <delta> <phi> <nRandom> [sf]
  */
object SignificanceJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 4, "args: <dataset> <delta> <phi> <nRandom> [sf]")
    val Array(dataset, deltaS, phiS, nrS) = args.take(4)
    val sf = args.lift(4).map(_.toDouble).getOrElse(1.0)
    val spark = JobSession.create("Significance")
    try {
      val edges = InteractionGen.byName(spark, dataset, sf).cache()
      for (m <- MotifCatalog.all) {
        val s = Significance.study(spark, edges, m, deltaS.toLong, phiS.toDouble, nrS.toInt)
        println(f"${m.name}%-10s real=${s.real}%8d mean=${s.mean}%10.1f std=${s.std}%8.1f " +
          f"z=${s.z}%8.2f p=${s.empiricalP}%.2f")
      }
    } finally spark.stop()
  }
}
