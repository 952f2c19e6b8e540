package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit}
import repro.core.{FlowMotifSearch, Motif, MotifCatalog, TopKSearch}
import repro.data.InteractionGen
import repro.stats.Significance

/** One call of a round to a public entry point of the library. Its answer is
  * a flat vector of numbers, so goldens and cross-checks compare one shape.
  */
sealed trait Call {
  def motif: Motif
  def delta: Long
  def label: String
}

object Call {
  final case class Count(motif: Motif, delta: Long, phi: Double) extends Call {
    def label = s"count ${motif.name}"
  }
  final case class TopK(motif: Motif, delta: Long, k: Int) extends Call {
    def label = s"topk ${motif.name}"
  }
  final case class MaxFlow(motif: Motif, delta: Long) extends Call {
    def label = s"dp ${motif.name}"
  }
  /** Answer: real count, random mean, random std, z. */
  final case class Study(motif: Motif, delta: Long, phi: Double, nRandom: Int, seed: Long) extends Call {
    def label = s"study ${motif.name}"
  }

  def run(spark: SparkSession, edges: DataFrame, call: Call): Seq[Double] = call match {
    case Count(m, d, phi)   => Seq(FlowMotifSearch.countInstances(spark, edges, m, d, phi).toDouble)
    case TopK(m, d, k)      => TopKSearch.topK(spark, edges, m, d, k).map(_.flow)
    case MaxFlow(m, d)      => Seq(TopKSearch.maxFlowDP(spark, edges, m, d))
    case Study(m, d, phi, r, s) =>
      val sig = Significance.study(spark, edges, m, d, phi, r, s)
      Seq(sig.real.toDouble, sig.mean, sig.std, sig.z)
  }
}

/** A benchmark workload: an input generator, keyed by seed, and the fixed
  * round of calls an analyst would make on that input.
  *
  * @param warmupRounds rounds run before timing. The JVM keeps speeding up
  *                     for several rounds; waiting until it stops would not
  *                     fit the benchmark's time budget, and every run follows
  *                     the same schedule, so runs stay comparable.
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    generate: (SparkSession, Long) => DataFrame,
    round: Seq[Call],
    warmupRounds: Int
)

object Workloads {
  import Call._
  import MotifCatalog._

  /** Study seed of the significance workload (the repo's jobs use 1234). */
  val StudySeed = 1234L

  val DenseCopies = 4
  /** Node ids of dense copy i start at i * DenseNodeStride (a copy has 289). */
  val DenseNodeStride = 1000L

  /** Bitcoin-like at a quarter of the paper scale: ~1.9 interactions per
    * pair, so G_T, P1 and series attach take the time and P2 is trivial.
    */
  val searchSparse = Workload(
    "search-sparse", 42L,
    (spark, seed) => InteractionGen.bitcoinLike(spark, 0.25, seed),
    Seq(M32, M55A).map(Count(_, 600L, 5.0)),
    warmupRounds = 2
  )

  /** Passenger-like, dense: four node-disjoint copies (seeded 4·seed+i),
    * each with 70x the background interactions on its ~90 pairs, squeezed
    * into two hours so that the δ-windows are uniformly full. P1 is trivial
    * and single-threaded P2 takes ~40% of a round's time. Summing four
    * independent copies keeps P2's cost, which grows with the square of
    * window occupancy, from hinging on one seed's densest pair. Not in
    * BENCHMARK.json: its round is too long for a steady median in the time
    * one run has; run it by hand to measure P2 work.
    */
  val p2Dense = Workload(
    "p2-dense", 44L,
    (spark, seed) => (0 until DenseCopies).map { i =>
      val c = InteractionGen.passengerConfig(1.0, seed * DenseCopies + i)
      val offset = lit(i * DenseNodeStride)
      InteractionGen.generate(spark, c.copy(nBackground = c.nBackground * 70, horizon = 7200L))
        .select((col("src") + offset).as("src"), (col("dst") + offset).as("dst"), col("t"), col("f"))
    }.reduce(_ unionByName _),
    Seq(Count(M32, 900L, 2.0), TopK(M32, 900L, 10), MaxFlow(M32, 900L)),
    warmupRounds = 2
  )

  /** Facebook-like at a quarter of the paper scale: the flow-permutation
    * study reruns the whole search on R permuted copies of the input.
    */
  val significance = Workload(
    "significance", 43L,
    (spark, seed) => InteractionGen.facebookLike(spark, 0.25, seed),
    Seq(Study(M32, 600L, 3.0, 2, StudySeed)),
    // Its rounds are short and still speed up ~10% each after two.
    warmupRounds = 3
  )

  val all: Seq[Workload] = Seq(searchSparse, p2Dense, significance)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Answers the library gave on the default seeds when the benchmark was
  * written, by workload, seed and call label.
  */
object Goldens {
  private val table: Map[(String, Long), Map[String, Seq[Double]]] = Map(
    ("search-sparse", 42L) -> Map(
      "count M(3,2)" -> Seq(377.0),
      "count M(5,5)A" -> Seq(10.0)),
    ("p2-dense", 44L) -> Map(
      "count M(3,2)" -> Seq(485142.0),
      "topk M(3,2)" -> Seq(199.0, 199.0, 199.0, 198.0, 198.0, 198.0, 198.0, 197.0, 197.0, 197.0),
      "dp M(3,2)" -> Seq(199.0)),
    ("significance", 43L) -> Map(
      "study M(3,2)" -> Seq(245.0, 109.0, 5.0, 27.2)))

  def lookup(workload: String, seed: Long): Option[Map[String, Seq[Double]]] = table.get((workload, seed))
}

/** Correctness checks on a round's answers. */
object Checks {

  /** Fail each outcome whose answer is wrong. `expected` holds goldens when the
    * seed has them, else the answers of the run's first round; `realCounts`
    * holds `countInstances` for each study's motif on the same input.
    */
  def judge(
      round: Seq[(Call, Outcome)],
      expected: Map[String, Seq[Double]],
      realCounts: Map[String, Double]
  ): Seq[Outcome] = {
    val answers = round.flatMap { case (c, o) => o.answer.map(c -> _) }.toMap
    round.map { case (call, o) =>
      o.answer.fold(o) { a =>
        val why = expected.get(call.label).filterNot(Stats.sameAnswer(a, _))
          .map(e => s"${call.label}: got ${a.mkString(",")}, expected ${e.mkString(",")}")
          .orElse(invariant(call, a, answers, realCounts))
        why.fold(o)(o.failed)
      }
    }
  }

  /** Invariants that hold on every input. */
  private def invariant(
      call: Call,
      a: Seq[Double],
      answers: Map[Call, Seq[Double]],
      realCounts: Map[String, Double]
  ): Option[String] = call match {
    case Call.TopK(m, d, k) =>
      val dp = answers.collectFirst { case (Call.MaxFlow(`m`, `d`), v) => v.head }
      if (a.length > k || a != a.sortBy(-_)) Some(s"${call.label}: not the best k, sorted: ${a.mkString(",")}")
      else dp.filterNot(_ == a.headOption.getOrElse(0.0)).map(v => s"${call.label}: heap top-1 ${a.headOption} != DP top-1 $v")
    case s: Call.Study =>
      realCounts.get(s.label).filterNot(_ == a.head).map(c => s"${s.label}: real ${a.head} != countInstances $c")
    case _ => None
  }
}
