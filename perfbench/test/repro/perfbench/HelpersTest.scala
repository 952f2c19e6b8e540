package repro.perfbench

import repro.core.MotifCatalog
import scala.util.control.NonFatal

/** Unit tests of the benchmark's helpers: `python3 perfbench/test.py`. */
object HelpersTest {
  private var failures = 0

  private def test(name: String)(body: => Unit): Unit = {
    val error = try { body; None } catch { case NonFatal(e) => Some(e.toString) }
    println(s"${if (error.isEmpty) "ok  " else "FAIL"} $name${error.fold("")(" : " + _)}")
    if (error.nonEmpty) failures += 1
  }

  private def assertEq[A](got: A, want: A): Unit =
    if (got != want) throw new AssertionError(s"got $got, want $want")

  def main(args: Array[String]): Unit = {
    test("tail is the median when no percentile leaves 10 samples beyond it") {
      val xs = (1 to 19).map(_.toDouble)
      assertEq(Stats.tail(xs), Stats.Tail(50.0, 10.0, 19))
      assertEq(Stats.tail(Seq(3.0)), Stats.Tail(50.0, 3.0, 1))
    }
    test("tail picks the highest percentile with at least 10 samples beyond it") {
      // 40 samples: p75 is rank 30 with 10 beyond; p90 would leave only 4.
      assertEq(Stats.tail((1 to 40).map(_.toDouble)), Stats.Tail(75.0, 30.0, 40))
      // 100 samples: p90 is rank 90 with exactly 10 beyond.
      assertEq(Stats.tail((1 to 100).map(_.toDouble).reverse), Stats.Tail(90.0, 90.0, 100))
      // 1000 samples: p99 is rank 990 with exactly 10 beyond.
      assertEq(Stats.tail((1 to 1000).map(_.toDouble)), Stats.Tail(99.0, 990.0, 1000))
    }
    test("median of even and odd counts") {
      assertEq(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)), 2.5)
      assertEq(Stats.median(Seq(5.0, 1.0, 3.0)), 3.0)
    }
    test("self time is the span minus its children") {
      val (v, clamped) = Stats.selfTime(5.0, Seq(1.0, 1.5))
      assertEq(clamped, false)
      assert(math.abs(v - 2.5) < 1e-12, v)
    }
    test("negative self time is clamped to 0 and flagged") {
      assertEq(Stats.selfTime(2.0, Seq(1.5, 1.0)), (0.0, true))
    }
    test("goldens are found by workload and seed, and only there") {
      val w = Workloads.searchSparse
      val g = Goldens.lookup(w.name, w.defaultSeed).getOrElse(throw new AssertionError("no golden"))
      assertEq(g.keySet, w.round.map(_.label).toSet)
      Workloads.all.foreach(x => assert(Goldens.lookup(x.name, x.defaultSeed).isDefined, x.name))
      assertEq(Goldens.lookup(w.name, w.defaultSeed + 1000), None)
      assertEq(Goldens.lookup("no-such-workload", w.defaultSeed), None)
    }
    test("an exception in a query counts as failed and the next query still runs") {
      val ledger = new Ledger
      val boom = ledger.attempt("boom")(throw new IllegalStateException("broken"))
      val fine = ledger.attempt("fine")(Seq(1.0))
      Seq(boom, fine).foreach(ledger.settle)
      assertEq(boom.answer, None)
      assert(boom.error.exists(_.contains("IllegalStateException")), boom.error)
      assertEq(fine.answer, Some(Seq(1.0)))
      assertEq((ledger.attempted, ledger.failed, ledger.failedFrac), (2, 1, 0.5))
    }
    test("a wrong answer counts as failed; a right one does not") {
      val count = Call.Count(MotifCatalog.M32, 600L, 5.0)
      val ledger = new Ledger
      val outs = Seq(Seq(7.0), Seq(8.0)).map(a => count -> ledger.attempt(count.label)(a))
      val judged = outs.map(o => Checks.judge(Seq(o), Map(count.label -> Seq(7.0)), Map.empty).head)
      judged.foreach(ledger.settle)
      assertEq(judged.map(_.error.isDefined), Seq(false, true))
      assertEq(ledger.failedFrac, 0.5)
    }
    test("heap top-1 must equal DP top-1") {
      val top = Call.TopK(MotifCatalog.M32, 900L, 2)
      val dp = Call.MaxFlow(MotifCatalog.M32, 900L)
      def judge(topAnswer: Seq[Double], dpAnswer: Seq[Double]) = {
        val l = new Ledger
        Checks.judge(Seq(top -> l.attempt("t")(topAnswer), dp -> l.attempt("d")(dpAnswer)), Map.empty, Map.empty)
          .map(_.error.isDefined)
      }
      assertEq(judge(Seq(9.0, 4.0), Seq(9.0)), Seq(false, false))
      assertEq(judge(Seq(9.0, 4.0), Seq(8.0)), Seq(true, false))
      assertEq(judge(Seq(4.0, 9.0), Seq(9.0)), Seq(true, false))
    }
    test("a study's real count must equal countInstances") {
      val st = Call.Study(MotifCatalog.M32, 600L, 3.0, 5, 1L)
      val l = new Ledger
      val o = l.attempt(st.label)(Seq(10.0, 4.0, 1.0, 6.0))
      assertEq(Checks.judge(Seq(st -> o), Map.empty, Map(st.label -> 10.0)).head.error, None)
      assert(Checks.judge(Seq(st -> o), Map.empty, Map(st.label -> 11.0)).head.error.isDefined)
    }

    if (failures > 0) { println(s"$failures test(s) failed"); sys.exit(1) }
    println("all tests passed")
  }
}
