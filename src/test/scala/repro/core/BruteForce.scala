package repro.core

/** Reference implementations used as ground truth in tests.
  *
  * [[instances]] enumerates every combination of non-empty subsets of the
  * per-edge series, keeps the ones that are valid by Definition 3.2
  * (time-respecting between consecutive edge-sets under the sequential
  * total-order semantics of Algorithm 1 — see DESIGN.md §2 — duration ≤ δ,
  * per-set flow ≥ φ), and filters to the maximal ones by Definition 3.3
  * (no single interaction can be added to any edge-set keeping validity;
  * additions never violate φ, so maximality is temporal).
  *
  * Exponential — only for small fixtures and property tests.
  */
object BruteForce {

  private def subsets[A](xs: IndexedSeq[A]): Iterator[Vector[A]] = {
    val n = xs.length
    require(n <= 20, "brute force limited to tiny series")
    Iterator.range(1, 1 << n).map { mask =>
      val b = Vector.newBuilder[A]
      var i = 0
      while (i < n) { if ((mask & (1 << i)) != 0) b += xs(i); i += 1 }
      b.result()
    }
  }

  /** Is the combination a valid instance (not necessarily maximal)? */
  def isValid(sets: Seq[Seq[TF]], delta: Long, phi: Double): Boolean = {
    if (sets.exists(_.isEmpty)) return false
    val sorted = sets.map(_.sortBy(_.t))
    val ordered = sorted.sliding(2).forall {
      case Seq(a, b) => a.last.t < b.head.t
      case _         => true
    }
    val all = sorted.flatten
    val span = all.map(_.t).max - all.map(_.t).min
    ordered && span <= delta && sorted.forall(_.map(_.f).sum >= phi)
  }

  /** Is the valid instance maximal w.r.t. the full per-edge series? */
  def isMaximal(
      sets: Seq[Seq[TF]],
      series: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      phi: Double
  ): Boolean = {
    val m = sets.length
    (0 until m).forall { i =>
      val chosen = sets(i).toSet
      series(i).filterNot(chosen).forall { extra =>
        val extended = sets.updated(i, (sets(i) :+ extra).sortBy(_.t))
        !isValid(extended, delta, phi)
      }
    }
  }

  /** All maximal valid instances of an m-edge motif over `series`. */
  def instances(
      series: IndexedSeq[IndexedSeq[TF]],
      delta: Long,
      phi: Double
  ): Vector[InstanceRow] = {
    Series.check(series)
    val m = series.length
    if (m == 0 || series.exists(_.isEmpty)) return Vector.empty

    def rec(i: Int): Iterator[Vector[Vector[TF]]] =
      if (i == m) Iterator.single(Vector.empty)
      else for (s <- subsets(series(i)); rest <- rec(i + 1)) yield s +: rest

    rec(0)
      .filter(sets => isValid(sets, delta, phi))
      .filter(sets => isMaximal(sets, series, delta, phi))
      .map(InstanceRow.of)
      .toVector
  }

  /** Maximum instance flow with φ = 0 (0.0 when there is no instance). */
  def maxFlow(series: IndexedSeq[IndexedSeq[TF]], delta: Long): Double = {
    val inst = instances(series, delta, phi = 0.0)
    if (inst.isEmpty) 0.0 else inst.map(_.flow).max
  }

  /** All structural matches of `motif` over a distinct-pair edge list, as
    * vertex assignments in motif-vertex-id order. Reference for the Spark
    * structural matcher on small graphs.
    */
  def structuralMatches(pairs: Set[(Long, Long)], motif: Motif): Set[Vector[Long]] = {
    val nodes = pairs.flatMap(p => Seq(p._1, p._2)).toVector
    def rec(step: Int, bound: Map[Int, Long]): Iterator[Map[Int, Long]] =
      if (step == motif.m) Iterator.single(bound)
      else {
        val (a, b) = motif.edges(step)
        val va = bound(a)
        val candidates = bound.get(b) match {
          case Some(vb) => if (pairs((va, vb))) Iterator.single(vb) else Iterator.empty
          case None     => nodes.iterator.filter(vb => pairs((va, vb)) && !bound.values.exists(_ == vb))
        }
        candidates.flatMap(vb => rec(step + 1, bound + (b -> vb)))
      }
    nodes.iterator
      .flatMap(v0 => rec(0, Map(motif.path(0) -> v0)))
      .map(bound => motif.vertexIds.map(bound))
      .toSet
  }
}
