package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Randomized equivalence of the fast Algorithm-1 enumerator, the top-k
  * variant and the DP module against the brute-force reference
  * (Definitions 3.2/3.3 applied literally). Deterministic seeds.
  */
class EnumeratorPropertySpec extends AnyFunSuite {

  /** Random per-edge series: unique timestamps within an edge, ties across
    * edges allowed; integer flows >= 1.
    */
  private def randomSeries(rnd: scala.util.Random, m: Int): Vector[Vector[TF]] =
    Vector.fill(m) {
      val n = rnd.nextInt(6) + 1
      rnd.shuffle((0 to 30).toVector).take(n).sorted
        .map(t => TF(t.toLong, (rnd.nextInt(9) + 1).toDouble))
    }

  private def checkCase(seed: Int): Unit = {
    val rnd = new scala.util.Random(seed)
    val m = rnd.nextInt(4) + 1
    val series = randomSeries(rnd, m)
    val delta = rnd.nextInt(16).toLong
    val phi = rnd.nextInt(3) match {
      case 0 => 0.0
      case 1 => (rnd.nextInt(8) + 1).toDouble
      case _ => (rnd.nextInt(20) + 1).toDouble
    }
    val fast = LocalEnumerator.enumerate(series, delta, phi)
    val brute = BruteForce.instances(series, delta, phi)
    val fastKeys = fast.map(_.key)
    assert(fastKeys.distinct.size == fastKeys.size,
      s"seed=$seed: duplicate instances emitted\n$series δ=$delta φ=$phi")
    assert(fastKeys.toSet == brute.map(_.key).toSet,
      s"seed=$seed: enumerator != brute force\nseries=$series δ=$delta φ=$phi\n" +
      s"fast=${fastKeys.toSet}\nbrute=${brute.map(_.key).toSet}")
    // Every emitted instance is valid and maximal by the definitions.
    fast.foreach { inst =>
      assert(BruteForce.isValid(inst.sets, delta, phi), s"seed=$seed: invalid instance $inst")
      assert(BruteForce.isMaximal(inst.sets, series, delta, phi), s"seed=$seed: non-maximal $inst")
    }
    // Flows agree per instance key.
    val bruteFlows = brute.map(i => i.key -> i.flow).toMap
    fast.foreach(i => assert(math.abs(bruteFlows(i.key) - i.flow) < 1e-9, s"seed=$seed flows"))
  }

  test("at δ = Long.MaxValue every kernel answers as at δ = max t - min t (100 seeds)") {
    for (seed <- 0 until 100) {
      val rnd = new scala.util.Random(seed)
      val series = randomSeries(rnd, rnd.nextInt(4) + 1)
      val ts = series.flatten.map(_.t)
      def answers(delta: Long) = (LocalEnumerator.enumerate(series, delta, 0.0).map(_.key),
        LocalEnumerator.count(series, delta, 2.0), TopKEnumerator.topK(series, delta, 3).map(_.key),
        MaxFlowDP.maxFlow(series, delta))
      assert(answers(Long.MaxValue) == answers(ts.max - ts.min), s"seed=$seed")
    }
  }

  for (batch <- 0 until 25) {
    test(s"enumerator == brute force on random series (batch $batch, 20 seeds)") {
      for (s <- 0 until 20) checkCase(batch * 20 + s)
    }
  }

  private def checkTopK(seed: Int): Unit = {
    val rnd = new scala.util.Random(10000 + seed)
    val m = rnd.nextInt(3) + 1
    val series = randomSeries(rnd, m)
    val delta = rnd.nextInt(16).toLong
    val k = rnd.nextInt(5) + 1
    val all = LocalEnumerator.enumerate(series, delta, phi = 0.0)
    val expectFlows = all.map(_.flow).sorted(Ordering[Double].reverse).take(k)
    val got = TopKEnumerator.topK(series, delta, k)
    assert(got.map(_.flow) == expectFlows,
      s"seed=$seed: topK flows mismatch: got=${got.map(_.flow)} expect=$expectFlows")
    // Whole rows: integer flows make ties common, and the order breaks them.
    assert(got == all.sorted(TopKEnumerator.rowOrder).take(k), s"seed=$seed: topK rows != first k of enumeration")
    got.foreach { inst =>
      assert(BruteForce.isValid(inst.sets, delta, phi = 0.0), s"seed=$seed invalid topK instance")
      assert(BruteForce.isMaximal(inst.sets, series, delta, phi = 0.0), s"seed=$seed non-maximal topK")
    }
  }

  for (batch <- 0 until 10) {
    test(s"top-k == k best of full enumeration (batch $batch, 20 seeds)") {
      for (s <- 0 until 20) checkTopK(batch * 20 + s)
    }
  }

  private def checkDP(seed: Int): Unit = {
    val rnd = new scala.util.Random(20000 + seed)
    val m = rnd.nextInt(3) + 1
    val series = randomSeries(rnd, m)
    val delta = rnd.nextInt(16).toLong
    val all = LocalEnumerator.enumerate(series, delta, phi = 0.0)
    val expect = if (all.isEmpty) 0.0 else all.map(_.flow).max
    val got = MaxFlowDP.maxFlow(series, delta)
    assert(math.abs(got - expect) < 1e-9,
      s"seed=$seed: DP max $got != enumeration max $expect\nseries=$series δ=$delta")
  }

  for (batch <- 0 until 10) {
    test(s"DP top-1 flow == max over enumerated instances (batch $batch, 20 seeds)") {
      for (s <- 0 until 20) checkDP(batch * 20 + s)
    }
  }
}
