package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{BruteForce, Motif, TF}

/** Shared fixtures: the paper's worked examples and deterministic random
  * graphs small enough for brute-force ground truth.
  */
object TestGraphs {

  /** One interaction edge of the multigraph. */
  final case class Edge(src: Long, dst: Long, t: Long, f: Double)

  /** Figure 2's bitcoin user graph fragment (the part pinned down by the
    * Figure 4 discussion): u3→u1 (10,10); u1→u2 (13,5),(15,7); u2→u3 (18,20).
    */
  val fig2Edges: Vector[Edge] = Vector(
    Edge(3, 1, 10, 10.0),
    Edge(1, 2, 13, 5.0),
    Edge(1, 2, 15, 7.0),
    Edge(2, 3, 18, 20.0)
  )

  /** Figure 7's structural match of M(3,3): per-motif-edge series. */
  val fig7Series: Vector[Vector[TF]] = Vector(
    Vector(TF(10, 5), TF(13, 2), TF(15, 3)),   // R(e_1)
    Vector(TF(9, 4), TF(11, 3), TF(16, 3)),    // R(e_2)
    Vector(TF(14, 4), TF(19, 6))               // R(e_3)
  )

  /** Table 2's DP example series (same match; the paper's Table 2 numbers
    * imply e_1 = (10,5),(13,2),(18,3) — see EXPERIMENTS.md).
    */
  val table2Series: Vector[Vector[TF]] = Vector(
    Vector(TF(10, 5), TF(13, 2), TF(18, 3)),
    Vector(TF(11, 3), TF(16, 3)),
    Vector(TF(14, 4), TF(19, 6))
  )

  def toDf(spark: SparkSession, edges: Seq[Edge]): DataFrame = {
    import spark.implicits._
    edges.toDF()
  }

  /** Deterministic random multigraph, unique timestamps per (src,dst) pair so
    * the brute-force maximality check (set-based removal) is exact.
    */
  def randomEdges(
      nNodes: Int,
      nEdges: Int,
      horizon: Int,
      maxFlow: Int,
      seed: Long
  ): Vector[Edge] = {
    val rnd = new scala.util.Random(seed)
    val used = scala.collection.mutable.Map[(Long, Long), scala.collection.mutable.Set[Long]]()
    val out = Vector.newBuilder[Edge]
    var produced = 0
    var attempts = 0
    while (produced < nEdges && attempts < nEdges * 20) {
      attempts += 1
      val s = rnd.nextInt(nNodes).toLong
      val d = rnd.nextInt(nNodes).toLong
      if (s != d) {
        val t = rnd.nextInt(horizon).toLong
        val ts = used.getOrElseUpdate((s, d), scala.collection.mutable.Set.empty)
        if (!ts(t)) {
          ts += t
          out += Edge(s, d, t, (rnd.nextInt(maxFlow) + 1).toDouble)
          produced += 1
        }
      }
    }
    out.result()
  }

  /** Per-motif-edge series of a structural match, extracted from an edge list. */
  def seriesFor(edges: Seq[Edge], motif: Motif, vs: Vector[Long]): Vector[Vector[TF]] =
    motif.edges.map { case (a, b) =>
      edges.filter(e => e.src == vs(motif.vertexIds.indexOf(a)) && e.dst == vs(motif.vertexIds.indexOf(b)))
        .sortBy(_.t).map(e => TF(e.t, e.f)).toVector
    }

  /** Ground-truth instances of a motif over a whole edge list: brute-force
    * structural matches × brute-force maximal enumeration. Keys are
    * (vertex assignment, per-edge-set timestamp lists).
    */
  def bruteForceAll(
      edges: Seq[Edge],
      motif: Motif,
      delta: Long,
      phi: Double
  ): Set[(Vector[Long], Seq[Seq[Long]])] = {
    val pairs = edges.filter(e => e.src != e.dst).map(e => (e.src, e.dst)).toSet
    BruteForce.structuralMatches(pairs, motif).flatMap { vs =>
      val series = seriesFor(edges, motif, vs)
      BruteForce.instances(series, delta, phi).map(inst => (vs, inst.key))
    }
  }
}
