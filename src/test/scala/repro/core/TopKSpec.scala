package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** Local top-k enumeration (Section 5). */
class TopKSpec extends AnyFunSuite {

  test("Figure 7 series: top-1 is the flow-5 instance") {
    val top = TopKEnumerator.topK(TestGraphs.fig7Series, delta = 10, k = 1)
    assert(top.map(_.flow) == Vector(5.0))
    assert(top.head.key == Vector(Vector(10L), Vector(11L, 16L), Vector(19L)))
  }

  test("Figure 7 series: top-2 flows are 5 and 3") {
    val top = TopKEnumerator.topK(TestGraphs.fig7Series, delta = 10, k = 2)
    assert(top.map(_.flow) == Vector(5.0, 3.0))
  }

  test("k larger than the instance count returns everything, best first") {
    val top = TopKEnumerator.topK(TestGraphs.fig7Series, delta = 10, k = 100)
    assert(top.map(_.flow) == Vector(5.0, 3.0, 3.0))
  }

  test("k-th flow is non-increasing in k (Figure 11's expectation)") {
    val edges = TestGraphs.randomEdges(nNodes = 3, nEdges = 25, horizon = 60, maxFlow = 9, seed = 5)
    val series = TestGraphs.seriesFor(edges, MotifCatalog.M32, Vector(0L, 1L, 2L))
    val flows = TopKEnumerator.topK(series, delta = 20, k = 50).map(_.flow)
    assert(flows == flows.sorted(Ordering[Double].reverse))
  }

  test("top-k never returns duplicates") {
    val edges = TestGraphs.randomEdges(nNodes = 3, nEdges = 25, horizon = 40, maxFlow = 9, seed = 6)
    val series = TestGraphs.seriesFor(edges, MotifCatalog.M32, Vector(0L, 1L, 2L))
    val keys = TopKEnumerator.topK(series, delta = 15, k = 20).map(_.key)
    assert(keys.distinct.size == keys.size)
  }

  test("empty input yields empty top-k") {
    assert(TopKEnumerator.topK(Vector(Vector.empty[TF], Vector(TF(1, 1))), 10, 3).isEmpty)
  }

  test("k must be positive") {
    intercept[IllegalArgumentException](TopKEnumerator.topK(TestGraphs.fig7Series, 10, 0))
  }

  test("negative δ is rejected") {
    intercept[IllegalArgumentException](TopKEnumerator.topK(TestGraphs.fig7Series, delta = -1, k = 1))
  }

  test("floating threshold never drops a top instance on adversarial order (big flows late)") {
    // Early low-flow instances fill the heap; later high-flow ones must displace them.
    val series = Vector(
      Vector(TF(0, 1), TF(100, 50)),
      Vector(TF(1, 1), TF(101, 50))
    )
    val top = TopKEnumerator.topK(series, delta = 5, k = 1)
    assert(top.map(_.flow) == Vector(50.0))
  }
}
