package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Algorithm 1 against the paper's worked examples and hand-checked cases. */
class LocalEnumeratorSpec extends AnyFunSuite {

  private def keys(inst: Seq[InstanceRow]): Set[Seq[Seq[Long]]] =
    inst.map(_.key).toSet

  // ---------------------------------------------------------------- Figure 7

  test("Figure 7 (δ=10, φ=0): window [10,20] yields exactly the maximal instances") {
    val inst = LocalEnumerator.enumerate(TestGraphs.fig7Series, delta = 10, phi = 0)
    assert(keys(inst) == Set(
      Vector(Vector(10L), Vector(11L), Vector(14L, 19L)),
      Vector(Vector(10L), Vector(11L, 16L), Vector(19L)),
      Vector(Vector(10L, 13L, 15L), Vector(16L), Vector(19L))
    ))
  }

  test("Figure 7: no instance contains just the first two elements of e_1 (paper's remark)") {
    val inst = LocalEnumerator.enumerate(TestGraphs.fig7Series, delta = 10, phi = 0)
    assert(!inst.exists(_.key.head == Vector(10L, 13L)))
  }

  test("Figure 7 (δ=10, φ=5): the φ constraint prunes to the single qualifying instance") {
    val inst = LocalEnumerator.enumerate(TestGraphs.fig7Series, delta = 10, phi = 5)
    assert(keys(inst) == Set(Vector(Vector(10L), Vector(11L, 16L), Vector(19L))))
    assert(inst.head.flow == 5.0)
  }

  test("Figure 7: window position [13,23] is skipped (no new e_3 elements)") {
    // If it were not skipped, a (non-maximal) instance starting at t=13 would appear.
    val inst = LocalEnumerator.enumerate(TestGraphs.fig7Series, delta = 10, phi = 0)
    assert(!inst.exists(_.key.head.head == 13L))
  }

  test("Figure 7 instance flows follow Equation 1 (min of per-edge sums)") {
    val inst = LocalEnumerator.enumerate(TestGraphs.fig7Series, delta = 10, phi = 0)
    val byKey = inst.map(i => i.key -> i.flow).toMap
    assert(byKey(Vector(Vector(10L), Vector(11L), Vector(14L, 19L))) == 3.0) // min(5,3,10)
    assert(byKey(Vector(Vector(10L), Vector(11L, 16L), Vector(19L))) == 5.0) // min(5,6,6)
    assert(byKey(Vector(Vector(10L, 13L, 15L), Vector(16L), Vector(19L))) == 3.0) // min(10,3,6)
  }

  // ------------------------------------------------------------- Figure 4(a)

  test("Figure 4(a): the M(3,3) instance of the Figure 2 graph (δ=10, φ=7)") {
    val series = TestGraphs.seriesFor(TestGraphs.fig2Edges, MotifCatalog.M33, Vector(3L, 1L, 2L))
    val inst = LocalEnumerator.enumerate(series, delta = 10, phi = 7)
    assert(keys(inst) == Set(Vector(Vector(10L), Vector(13L, 15L), Vector(18L))))
    assert(inst.head.flow == 10.0) // min(10, 12, 20)
    assert(inst.head.tEnd - inst.head.tStart == 8)
  }

  test("Figure 4(b): the sub-instance missing (13,5) is NOT emitted (non-maximal)") {
    val series = TestGraphs.seriesFor(TestGraphs.fig2Edges, MotifCatalog.M33, Vector(3L, 1L, 2L))
    val inst = LocalEnumerator.enumerate(series, delta = 10, phi = 7)
    assert(!inst.exists(_.key(1) == Vector(15L)))
  }

  // ---------------------------------------------------------------- Figure 1

  test("Figure 1(d): multiple graph edges instantiate one motif edge of M(3,2)") {
    val series = Vector(
      Vector(TF(2, 5)),          // e_1 = (u1,u2)
      Vector(TF(4, 3), TF(5, 5)) // e_2 = (u2,u3)
    )
    val inst = LocalEnumerator.enumerate(series, delta = 5, phi = 5)
    assert(keys(inst) == Set(Vector(Vector(2L), Vector(4L, 5L))))
    assert(inst.head.flow == 5.0)
  }

  // ------------------------------------------------------------- edge cases

  test("single-edge motif: the whole window's elements form one instance") {
    val series = Vector(Vector(TF(1, 2), TF(3, 2), TF(20, 9)))
    val inst = LocalEnumerator.enumerate(series, delta = 5, phi = 0)
    assert(keys(inst) == Set(Vector(Vector(1L, 3L)), Vector(Vector(20L))))
  }

  test("single-edge motif honours φ") {
    val series = Vector(Vector(TF(1, 2), TF(3, 2), TF(20, 9)))
    val inst = LocalEnumerator.enumerate(series, delta = 5, phi = 5)
    assert(keys(inst) == Set(Vector(Vector(20L))))
  }

  test("empty series on any motif edge yields no instances") {
    assert(LocalEnumerator.enumerate(Vector(Vector(TF(1, 1)), Vector.empty), 10, 0).isEmpty)
    assert(LocalEnumerator.enumerate(Vector.empty, 10, 0).isEmpty)
  }

  test("strict time-respecting order: equal timestamps across consecutive edges do not chain") {
    val series = Vector(Vector(TF(5, 1)), Vector(TF(5, 1)))
    assert(LocalEnumerator.enumerate(series, delta = 10, phi = 0).isEmpty)
  }

  test("δ = 0 admits only same-timestamp windows (hence nothing for chains)") {
    val series = Vector(Vector(TF(5, 1)), Vector(TF(6, 1)))
    assert(LocalEnumerator.enumerate(series, delta = 0, phi = 0).isEmpty)
  }

  test("an interaction just outside the window is excluded (boundary δ)") {
    val series = Vector(Vector(TF(0, 1)), Vector(TF(10, 1), TF(11, 5)))
    val inst = LocalEnumerator.enumerate(series, delta = 10, phi = 0)
    // Window [0,10] holds {10}; {11} is out. [11's] own instance needs an e_1 anchor ≤ it.
    assert(keys(inst) == Set(Vector(Vector(0L), Vector(10L, 11L))) ||
           keys(inst) == Set(Vector(Vector(0L), Vector(10L))))
    // Exact semantics: 11 > 0+10 so only (10) joins the anchor-0 window.
    assert(keys(inst) == Set(Vector(Vector(0L), Vector(10L))))
  }

  test("cross-window maximality: later-anchored duplicate of an earlier instance is suppressed") {
    // e1 at 0 and 5; e2 at 6. Instance [{0,5},{6}] is maximal; [{5},{6}] is not.
    val series = Vector(Vector(TF(0, 1), TF(5, 1)), Vector(TF(6, 1)))
    val inst = LocalEnumerator.enumerate(series, delta = 10, phi = 0)
    assert(keys(inst) == Set(Vector(Vector(0L, 5L), Vector(6L))))
  }

  test("within-window maximality: prefix that skips an addable own element is suppressed") {
    // e1 at {0,5}, e2 at {6}: instance [{0},{6}] would admit adding 5 -> only [{0,5},{6}].
    val series = Vector(Vector(TF(0, 2), TF(5, 3)), Vector(TF(6, 1)))
    val inst = LocalEnumerator.enumerate(series, delta = 10, phi = 0)
    assert(keys(inst) == Set(Vector(Vector(0L, 5L), Vector(6L))))
  }

  test("a second window is opened when it brings new last-edge elements") {
    // e1 at {0,5}; e2 at {6, 14}; δ=10: [0,10] -> [{0,5},{6}]; [5,15] -> [{5},{6,14}].
    val series = Vector(Vector(TF(0, 1), TF(5, 1)), Vector(TF(6, 1), TF(14, 1)))
    val inst = LocalEnumerator.enumerate(series, delta = 10, phi = 0)
    assert(keys(inst) == Set(
      Vector(Vector(0L, 5L), Vector(6L)),
      Vector(Vector(5L), Vector(6L, 14L))
    ))
  }

  test("a δ near Long.MaxValue saturates the window end instead of wrapping") {
    val series = Vector(Vector(TF(10, 5)), Vector(TF(20, 5)))
    assert(LocalEnumerator.count(series, Long.MaxValue - 5, 0) == 1)
    assert(MaxFlowDP.maxFlow(series, Long.MaxValue - 5) == 5.0)
    assert(Series.upperBound(Vector(TF(1, 1), TF(Long.MaxValue, 1)), Long.MaxValue) == 2)
  }

  test("timestamps Long.MinValue and Long.MaxValue are ordinary interaction times") {
    assert(LocalEnumerator.count(Vector(Vector(TF(Long.MinValue, 1))), 0, 0) == 1)
    val last = Vector(Vector(TF(Long.MaxValue - 1, 1), TF(Long.MaxValue, 1)))
    assert(keys(LocalEnumerator.enumerate(last, 5, 0)) == Set(Vector(Vector(Long.MaxValue - 1, Long.MaxValue))))
  }

  test("count agrees with enumerate") {
    for (seed <- 0 until 20) {
      val edges = TestGraphs.randomEdges(nNodes = 3, nEdges = 12, horizon = 25, maxFlow = 5, seed = seed)
      val series = TestGraphs.seriesFor(edges, MotifCatalog.M32, Vector(0L, 1L, 2L))
      assert(LocalEnumerator.count(series, 8, 2) ==
             LocalEnumerator.enumerate(series, 8, 2).size.toLong)
    }
  }

  test("unsorted input series are rejected by every kernel") {
    // Figure 7's series with e_1 out of order: (15, 3) before (10, 5).
    val unsorted = TestGraphs.fig7Series.updated(0, Vector(TF(15, 3), TF(10, 5), TF(13, 2)))
    for (kernel <- Seq[IndexedSeq[IndexedSeq[TF]] => Any](LocalEnumerator.enumerate(_, 10, 0),
        LocalEnumerator.count(_, 10, 0), TopKEnumerator.topK(_, 10, 3), MaxFlowDP.maxFlow(_, 10),
        MaxFlowDP.dpTable(_, 10, 20))) {
      val e = intercept[IllegalArgumentException](kernel(unsorted))
      assert(e.getMessage.contains("series must be sorted by t, got t=10 after t=15"), e.getMessage)
    }
  }

  test("negative δ is rejected") {
    intercept[IllegalArgumentException](
      LocalEnumerator.enumerate(Vector(Vector(TF(1, 1))), delta = -1, phi = 0))
  }

  test("φ = NaN is rejected by both kernels; φ = ±∞ is legal") {
    for (kernel <- Seq[Double => Any](LocalEnumerator.enumerate(TestGraphs.fig7Series, 10, _),
                                       LocalEnumerator.count(TestGraphs.fig7Series, 10, _))) {
      val e = intercept[IllegalArgumentException](kernel(Double.NaN))
      assert(e.getMessage.contains("phi must be a number, got NaN"), e.getMessage)
    }
    assert(LocalEnumerator.count(TestGraphs.fig7Series, 10, Double.PositiveInfinity) == 0)
    assert(LocalEnumerator.count(TestGraphs.fig7Series, 10, Double.NegativeInfinity) ==
      LocalEnumerator.count(TestGraphs.fig7Series, 10, 0))
  }
}
