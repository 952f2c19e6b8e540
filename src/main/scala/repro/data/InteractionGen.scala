package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Motif, MotifCatalog}

/** Synthetic interaction networks substituting the paper's three real
  * datasets (DESIGN.md §4). Edge schema: (src: long, dst: long, t: long,
  * f: double), one row per interaction.
  *
  * Each network = background noise + planted flow-conserving events.
  *
  *  - Background: hash-seeded (partitioning-independent, fully deterministic)
  *    interactions between random node pairs, with bursty timestamps and
  *    per-dataset flow distributions. Background flows are small, so high-φ
  *    searches prune them — exactly the pruning behaviour the paper measures.
  *  - Planted events: a catalog motif is instantiated on nodes of a small
  *    active core; a flow amount F travels along the spanning path within a
  *    fraction of the default δ, each hop optionally split into two
  *    transactions ("smurfing"). These create genuine flow correlation along
  *    paths, which is what makes real networks significant versus
  *    flow-permuted randomizations (Section 6.3).
  */
object InteractionGen {

  /** Deterministic uniform [0,1) from any column expression — xxhash64-based,
    * so it does not depend on partitioning (unlike `rand(seed)`).
    */
  private def prand(c: Column, seed: Long): Column =
    pmod(xxhash64(c, lit(seed)), lit(1000000007L)).cast("double") / 1000000007.0

  /** Parameters of one synthetic network. */
  final case class Config(
      nNodes: Long,
      nPairs: Long,
      nBackground: Long,
      horizon: Long,            // timestamps drawn from [0, horizon)
      burstSpan: Long,          // background burst width (seconds)
      bgFlowMean: Double,       // background flow ~ 0.5 + Exp(mean)
      flowInteger: Boolean,     // round flows up to integers (counts/passengers)
      flowCap: Double,          // cap on background flow
      tQuantum: Long,           // timestamp bucketing (1 = none, 30 = Facebook)
      coreSize: Long,           // planted events draw nodes from [0, coreSize)
      nEvents: Int,
      eventMotifs: Vector[Motif], // shapes planted (sampled uniformly)
      eventSpan: Long,          // planted event duration budget
      eventFlowBase: Double,    // planted per-hop flow ≈ base * (1 + U)
      splitProb: Double,        // probability a hop is split into 2 txns
      seed: Long
  )

  /** Generate the network for `cfg`. Deterministic in `cfg` alone. */
  def generate(spark: SparkSession, cfg: Config): DataFrame = {
    val bg = background(spark, cfg)
    val ev = plantedEvents(spark, cfg)
    bg.unionByName(ev)
      .select(col("src"), col("dst"),
        (col("t") - pmod(col("t"), lit(cfg.tQuantum))).as("t"), col("f"))
  }

  private def background(spark: SparkSession, cfg: Config): DataFrame = {
    val s = cfg.seed
    // Pair table: pair p -> (src, dst). Duplicates merge; self-pairs dropped.
    val ids = spark.range(cfg.nBackground).select(col("id"))
    val pairId = (prand(col("id"), s + 1) * cfg.nPairs).cast("long").as("p")
    val withPair = ids.select(col("id"), pairId)
    val src = (prand(col("p"), s + 2) * cfg.nNodes).cast("long")
    val dst = (prand(col("p"), s + 3) * cfg.nNodes).cast("long")
    // Bursty timestamps: each pair has a handful of burst centers; an
    // interaction lands near one of them.
    val burst = (prand(col("id"), s + 4) * 4).cast("long")
    val center = (prand(col("p") * 7 + burst, s + 5) * (cfg.horizon - cfg.burstSpan)).cast("long")
    val t = center + (prand(col("id"), s + 6) * cfg.burstSpan).cast("long")
    val u = prand(col("id"), s + 7)
    val rawF = lit(0.5) - log(lit(1.0) - u) * cfg.bgFlowMean
    val f0 = least(rawF, lit(cfg.flowCap))
    val f = if (cfg.flowInteger) ceil(f0).cast("double") else round(f0, 4)
    withPair
      .select(src.as("src"), dst.as("dst"), t.as("t"), f.as("f"))
      .where(col("src") =!= col("dst"))
  }

  /** Planted events are few; generate them driver-side for full determinism. */
  private def plantedEvents(spark: SparkSession, cfg: Config): DataFrame = {
    import spark.implicits._
    val rnd = new scala.util.Random(cfg.seed * 31 + 17)
    val rows = Vector.newBuilder[(Long, Long, Long, Double)]
    for (_ <- 0 until cfg.nEvents) {
      val motif = cfg.eventMotifs(rnd.nextInt(cfg.eventMotifs.length))
      // Bind distinct core nodes to the motif's vertices.
      val chosen = scala.collection.mutable.LinkedHashSet.empty[Long]
      while (chosen.size < motif.numVertices)
        chosen += (rnd.nextDouble() * cfg.coreSize).toLong
      val nodes = chosen.toVector
      // Heterogeneous event durations (0.3x..3x the budget): slow events only
      // complete inside larger δ windows, giving every motif the instance
      // growth with δ that the paper observes (Figure 9).
      val span = (cfg.eventSpan * (0.3 + 2.7 * rnd.nextDouble())).toLong
      val t0 = (rnd.nextDouble() * math.max(1L, cfg.horizon - span)).toLong
      val gap = math.max(2L, span / (motif.m * 2L))
      val flow = cfg.eventFlowBase * (1.0 + rnd.nextDouble())
      var cursor = t0
      for ((a, b) <- motif.edges) {
        val (u, v) = (nodes(a), nodes(b))
        val hopF = if (cfg.flowInteger) math.ceil(flow) else math.rint(flow * 100) / 100
        if (rnd.nextDouble() < cfg.splitProb && gap > 3 && hopF >= 2) {
          // Split the hop into two transactions that sum to hopF, keeping
          // integer flows integral ("smurfing").
          val f1 = if (cfg.flowInteger) math.ceil(hopF / 2) else math.rint(hopF * 50) / 100
          rows += ((u, v, cursor, f1))
          rows += ((u, v, cursor + 1 + rnd.nextInt((gap / 2).toInt.max(1)), hopF - f1))
        } else {
          rows += ((u, v, cursor, hopF))
        }
        cursor += gap + rnd.nextInt(gap.toInt.max(1))
      }
    }
    rows.result().toDF("src", "dst", "t", "f")
  }

  /** Bitcoin-like: sparse, rare parallel edges, heavy-tailed flows
    * (avg ≈ 4.8), cyclic planted flow common.
    */
  def bitcoinConfig(sf: Double = 1.0, seed: Long = 42): Config = Config(
    nNodes = math.max(70, (40000 * sf).toLong),
    nPairs = math.max(40, (26000 * sf).toLong),
    nBackground = math.max(60, (40000 * sf).toLong),
    horizon = 86400L, // 1 day (compressed from the paper's 9 months so that
                       // δ-window alignment probabilities stay non-degenerate
                       // at this scale; see DESIGN.md §4)
    burstSpan = 1200L,
    bgFlowMean = 4.0,   // 0.5 + Exp(4.0) ≈ 4.5 mean, heavy tail
    flowInteger = false,
    flowCap = 500.0,
    tQuantum = 1L,
    // Core density stays below one planted pair per core node so structural
    // match counts *decline* with motif size, as in the paper's Table 4.
    coreSize = math.max(20, (9000 * sf).toLong),
    nEvents = math.max(10, (500 * sf).toInt),
    eventMotifs = Vector(MotifCatalog.M32, MotifCatalog.M33, MotifCatalog.M43,
      MotifCatalog.M44A, MotifCatalog.M44B, MotifCatalog.M44C,
      MotifCatalog.M54, MotifCatalog.M55A, MotifCatalog.M55B, MotifCatalog.M55C),
    eventSpan = 480L,
    eventFlowBase = 12.0,
    splitProb = 0.35,
    seed = seed
  )

  /** Facebook-like: 30-second buckets, ~3-4 interactions per connected pair,
    * small-count flows (avg ≈ 3), chain-heavy planted propagation.
    */
  def facebookConfig(sf: Double = 1.0, seed: Long = 43): Config = Config(
    nNodes = math.max(60, (12000 * sf).toLong),
    nPairs = math.max(30, (5200 * sf).toLong),
    nBackground = math.max(60, (19000 * sf).toLong),
    horizon = 86400L, // 1 day (compressed; see DESIGN.md §4)
    burstSpan = 900L,
    bgFlowMean = 2.2,
    flowInteger = true,
    flowCap = 40.0,
    tQuantum = 30L,
    coreSize = math.max(15, (4500 * sf).toLong),
    nEvents = math.max(10, (400 * sf).toInt),
    eventMotifs = Vector(MotifCatalog.M32, MotifCatalog.M32, MotifCatalog.M43,
      MotifCatalog.M43, MotifCatalog.M54, MotifCatalog.M54,
      MotifCatalog.M33, MotifCatalog.M44A, MotifCatalog.M44B, MotifCatalog.M55C),
    eventSpan = 450L,
    eventFlowBase = 6.0,
    splitProb = 0.25,
    seed = seed
  )

  /** Passenger-like: exactly 289 zones, denser pair set, integer flows 1..6
    * (avg ≈ 1.9), planted chains only (acyclic movement dominates).
    */
  def passengerConfig(sf: Double = 1.0, seed: Long = 44): Config = Config(
    nNodes = 289,
    nPairs = math.max(30, (90 * sf).toLong),
    nBackground = math.max(60, (500 * sf).toLong),
    horizon = 43200L, // 12 hours (compressed; see DESIGN.md §4)
    burstSpan = 1800L,
    bgFlowMean = 1.1,
    flowInteger = true,
    flowCap = 6.0,
    tQuantum = 1L,
    coreSize = 289,
    nEvents = math.max(10, (22 * sf).toInt),
    eventMotifs = Vector(MotifCatalog.M32, MotifCatalog.M32, MotifCatalog.M43,
      MotifCatalog.M43, MotifCatalog.M54, MotifCatalog.M54),
    eventSpan = 700L,
    eventFlowBase = 4.0,
    splitProb = 0.2,
    seed = seed
  )

  def bitcoinLike(spark: SparkSession, sf: Double = 1.0, seed: Long = 42): DataFrame =
    generate(spark, bitcoinConfig(sf, seed))

  def facebookLike(spark: SparkSession, sf: Double = 1.0, seed: Long = 43): DataFrame =
    generate(spark, facebookConfig(sf, seed))

  /** One of the paper's three networks: the name jobs take, the label tables
    * print, its [[Config]] at a scale factor, and the paper's default (δ, φ).
    */
  final case class Network(name: String, label: String, config: Double => Config, delta: Long, phi: Double)

  /** The three networks, in the order the paper's tables list them. */
  val networks: Seq[Network] = Seq(
    Network("bitcoin", "Bitcoin-like", bitcoinConfig(_), 600L, 5.0),
    Network("facebook", "Facebook-like", facebookConfig(_), 600L, 3.0),
    Network("passenger", "Passenger-like", passengerConfig(_), 900L, 2.0))

  /** The network named on a job's command line, at scale factor `sf`. */
  def byName(spark: SparkSession, name: String, sf: Double): DataFrame = {
    val n = networks.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown dataset $name; known: ${networks.map(_.name).mkString(", ")}"))
    generate(spark, n.config(sf))
  }
}
