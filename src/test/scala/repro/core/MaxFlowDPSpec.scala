package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Algorithm 2 / Equation 2 and the paper's Table 2 walk-through. */
class MaxFlowDPSpec extends AnyFunSuite {

  // -------------------------------------------------------------- Table 2

  test("Table 2: timestamp grid of window [10,20]") {
    val (ts, _) = MaxFlowDP.dpTable(TestGraphs.table2Series, 10, 20)
    assert(ts == Vector(10L, 11L, 13L, 14L, 16L, 18L, 19L))
  }

  test("Table 2: κ=1 row (cumulative e_1 flow per prefix)") {
    val (_, table) = MaxFlowDP.dpTable(TestGraphs.table2Series, 10, 20)
    // paper row (on its grid incl. t=15): 5 5 7 7 7 7 10 10
    assert(table(0) == Vector(5.0, 5.0, 7.0, 7.0, 7.0, 10.0, 10.0))
  }

  test("Table 2: κ=2 row matches the paper (3 until t=16, then 5)") {
    val (_, table) = MaxFlowDP.dpTable(TestGraphs.table2Series, 10, 20)
    assert(table(1) == Vector(0.0, 3.0, 3.0, 3.0, 5.0, 5.0, 5.0))
  }

  test("Table 2: κ=3 final cell is 5, the flow of the best M(3,3) instance") {
    val (_, table) = MaxFlowDP.dpTable(TestGraphs.table2Series, 10, 20)
    // The paper's printed mid-row κ=3 values (e.g. 4 at t=14) are inconsistent
    // with Eq. 2 given its own κ=2 row (min(3,4)=3, not 4) — see
    // EXPERIMENTS.md. Eq. 2 yields:
    assert(table(2) == Vector(0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 5.0))
    assert(table(2).last == 5.0)
  }

  test("Table 2: the DP optimum equals the top-1 instance of Algorithm 1") {
    val best = LocalEnumerator.enumerate(TestGraphs.table2Series, 10, 0).map(_.flow).max
    assert(MaxFlowDP.maxFlow(TestGraphs.table2Series, 10) == best)
    assert(best == 5.0)
    // ... and that instance is [e1<-{(10,5)}, e2<-{(11,3),(16,3)}, e3<-{(19,6)}]
    val top = TopKEnumerator.topK(TestGraphs.table2Series, 10, 1).head
    assert(top.key == Vector(Vector(10L), Vector(11L, 16L), Vector(19L)))
  }

  // ---------------------------------------------------------- general cases

  test("Figure 7 series: DP max flow is 5") {
    assert(MaxFlowDP.maxFlow(TestGraphs.fig7Series, 10) == 5.0)
  }

  /** The DP optimum of one window: the last cell of its table, 0 when the window is empty. */
  private def lastCell(series: IndexedSeq[IndexedSeq[TF]], windowStart: Long, windowEnd: Long): Double =
    MaxFlowDP.dpTable(series, windowStart, windowEnd)._2.last.lastOption.getOrElse(0.0)

  test("empty window yields flow 0") {
    assert(lastCell(Vector(Vector(TF(50, 5))), 0, 10) == 0.0)
  }

  test("single-edge motif: DP equals the best aggregated window") {
    val series = Vector(Vector(TF(1, 2), TF(3, 2), TF(20, 9)))
    assert(MaxFlowDP.maxFlow(series, 5) == 9.0)
    assert(MaxFlowDP.maxFlow(series, 25) == 13.0)
  }

  test("an edge with no elements yields flow 0") {
    assert(MaxFlowDP.maxFlow(Vector(Vector(TF(1, 1)), Vector.empty), 10) == 0.0)
  }

  test("strictly ordered edges: DP cannot co-locate consecutive edge-sets in time") {
    val series = Vector(Vector(TF(5, 4)), Vector(TF(5, 4)))
    assert(MaxFlowDP.maxFlow(series, 10) == 0.0)
  }

  test("dpTable's last cell respects window boundaries") {
    val series = Vector(Vector(TF(10, 5), TF(30, 50)), Vector(TF(12, 3), TF(31, 60)))
    assert(lastCell(series, 10, 20) == 3.0)
    // Wider window: E1={10,30} (55) before E2={31} (60) -> min = 55.
    assert(lastCell(series, 10, 40) == 55.0)
  }

  test("negative δ is rejected") {
    intercept[IllegalArgumentException](MaxFlowDP.maxFlow(TestGraphs.fig7Series, delta = -1))
  }

  test("non-positive or non-finite flows are rejected by every P2 kernel") {
    // The DP encodes "no instance" as 0, so a negative-flow instance would vanish silently.
    for (f <- Seq(-1.0, 0.0, Double.NaN, Double.PositiveInfinity)) {
      val series = Vector(Vector(TF(1, f)), Vector(TF(2, f)))
      intercept[IllegalArgumentException](MaxFlowDP.maxFlow(series, 10))
      intercept[IllegalArgumentException](TopKEnumerator.topK(series, 10, 1))
      intercept[IllegalArgumentException](LocalEnumerator.count(series, 10, 0))
    }
  }

  test("dpTable matrix dimensions are m x τ") {
    val (ts, table) = MaxFlowDP.dpTable(TestGraphs.fig7Series, 10, 20)
    assert(table.length == 3)
    assert(table.forall(_.length == ts.length))
  }
}
