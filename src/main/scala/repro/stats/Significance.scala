package repro.stats

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Index, LocalEnumerator, Motif, StructuralMatcher}
import repro.data.Randomizer

/** Statistical significance of flow motifs (Section 6.3): compare the number
  * of instances in the real network against flow-permuted randomizations and
  * report the z-score `z_M = (r_M - μ_M) / σ_M`.
  */
object Significance {

  final case class MotifSignificance(
      motif: String,
      real: Long,
      randomCounts: Seq[Long],
      mean: Double,
      std: Double,
      z: Double,
      empiricalP: Double
  )

  /** Population standard deviation, as used for z-scores over the R runs. */
  def stdDev(xs: Seq[Long]): Double = {
    val mu = xs.map(_.toDouble).sum / xs.size
    math.sqrt(xs.map(x => (x - mu) * (x - mu)).sum / xs.size)
  }

  def zScore(real: Long, randomCounts: Seq[Long]): (Double, Double, Double) = {
    val mu = randomCounts.map(_.toDouble).sum / randomCounts.size
    val sd = stdDev(randomCounts)
    val z = if (sd == 0.0) { if (real.toDouble == mu) 0.0 else Double.PositiveInfinity * math.signum(real - mu) }
            else (real - mu) / sd
    (mu, sd, z)
  }

  /** Run the full study for one motif: real count + `nRandom` permuted counts,
    * random count r being `countInstances` on `permuteFlows(edges, seed + r)`.
    * Permutations move only flows, so one collect draws them all and one walk
    * counts each structural match under every flow vector.
    */
  def study(
      spark: SparkSession,
      edges: DataFrame,
      motif: Motif,
      delta: Long,
      phi: Double,
      nRandom: Int,
      seed: Long = 7L
  ): MotifSignificance = {
    require(nRandom >= 1, s"nRandom must be >= 1, got $nRandom")
    LocalEnumerator.requireDelta(delta)
    LocalEnumerator.requirePhi(phi)
    val (e, flows) = Randomizer.flowVectors(edges, seed, nRandom)
    val counts = StructuralMatcher.aggregate(spark.sparkContext, Index(e, flows), motif, new Array[Long](nRandom + 1))(
      (n, gt, _, ps) => { for (j <- n.indices) n(j) += LocalEnumerator.count(gt.seriesOf(ps, j), delta, phi); n },
      (a, b) => { for (j <- a.indices) a(j) += b(j); a })
    val (real, randomCounts) = (counts.head, counts.toVector.tail)
    val (mu, sd, z) = zScore(real, randomCounts)
    val p = randomCounts.count(_ >= real).toDouble / nRandom
    MotifSignificance(motif.name, real, randomCounts, mu, sd, z, p)
  }
}
