package repro.core

/** A network flow motif (Definition 3.1), minus its numeric thresholds.
  *
  * The motif graph is represented by its spanning path `SP_M`: the sequence of
  * motif-vertex ids visited by the edges in label order. Vertices are numbered
  * by first appearance along the path (so `path.head == 0`), which gives every
  * motif a canonical form. The i-th motif edge (1-based label `i`) is
  * `(path(i-1), path(i))`.
  *
  * The duration constraint δ and flow constraint φ are passed separately to
  * the search algorithms, because the paper treats them as per-query
  * parameters of the same structural motif.
  */
final case class Motif(name: String, path: Vector[Int]) {
  require(path.length >= 2, s"motif $name needs at least one edge")
  require(path.head == 0, s"motif $name: spanning path must start at vertex 0")
  require(
    path.zipWithIndex.forall { case (v, i) => v <= path.take(i).foldLeft(-1)(math.max) + 1 },
    s"motif $name: vertices must be numbered by first appearance along the path"
  )
  require(
    path.sliding(2).forall(p => p(0) != p(1)),
    s"motif $name: self-loop motif edges are not allowed"
  )

  /** Number of motif edges `m = |E_M|`. */
  val m: Int = path.length - 1

  /** Distinct motif vertex ids, in order of first appearance: 0 until numVertices. */
  val vertexIds: Vector[Int] = path.distinct

  /** Number of motif vertices `|V_M|`. */
  val numVertices: Int = vertexIds.length

  /** Motif edges `(from, to)` in label order 1..m. */
  val edges: Vector[(Int, Int)] = path.sliding(2).map(p => (p(0), p(1))).toVector

  /** True iff the spanning path revisits a vertex (the motif contains a cycle). */
  val isCyclic: Boolean = numVertices < path.length

  override def toString: String = s"$name[${path.mkString("->")}]"
}

/** The ten motif structures of the paper's Figure 3 (see DESIGN.md §3 for the
  * substitution note on the lettered variants).
  */
object MotifCatalog {
  val M32: Motif  = Motif("M(3,2)", Vector(0, 1, 2))
  val M33: Motif  = Motif("M(3,3)", Vector(0, 1, 2, 0))
  val M43: Motif  = Motif("M(4,3)", Vector(0, 1, 2, 3))
  val M44A: Motif = Motif("M(4,4)A", Vector(0, 1, 2, 3, 0))
  val M44B: Motif = Motif("M(4,4)B", Vector(0, 1, 2, 3, 1))
  val M44C: Motif = Motif("M(4,4)C", Vector(0, 1, 2, 0, 3))
  val M54: Motif  = Motif("M(5,4)", Vector(0, 1, 2, 3, 4))
  val M55A: Motif = Motif("M(5,5)A", Vector(0, 1, 2, 3, 4, 0))
  val M55B: Motif = Motif("M(5,5)B", Vector(0, 1, 2, 3, 4, 1))
  val M55C: Motif = Motif("M(5,5)C", Vector(0, 1, 2, 3, 0, 4))

  /** All motifs in the order of the paper's Table 4 columns. */
  val all: Vector[Motif] = Vector(M32, M33, M43, M44A, M44B, M44C, M54, M55A, M55B, M55C)

  def byName(name: String): Motif = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown motif $name; known: ${all.map(_.name).mkString(", ")}"))
}
