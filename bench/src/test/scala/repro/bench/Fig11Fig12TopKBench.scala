package repro.bench

import repro.core.{FlowMotifSearch, MaxFlowDP, MotifCatalog, TopKEnumerator, TopKSearch}

/** Paper Figures 11 and 12: (11) flow of the k-th best instance versus k —
  * decreasing with a flattening tail; (12) DP-based top-1 versus the
  * heap-based top-1 in phase P2 — the DP module should not be slower overall.
  */
class Fig11Fig12TopKBench extends BenchBase {

  // Cyclic motif where cyclic flow is planted; chains on the chain-dominated
  // passenger network (which plants no cycles — see DESIGN.md §4).
  private def motifFor(name: String) =
    if (name.startsWith("Bitcoin")) MotifCatalog.M33 else MotifCatalog.M43

  test("Figure 11: flow of the k-th instance") {
    banner(s"FIGURE 11 — k-th instance flow (δ = default, φ = 0)")
    println(f"${"Dataset"}%-16s${"motif"}%-10s${"k"}%8s${"k-th flow"}%12s")
    for ((name, df, delta, _) <- datasets) {
      val motif = motifFor(name)
      val ks = Seq(1, 5, 10, 50, 100)
      val top = TopKSearch.topK(spark, df, motif, delta, ks.max)
      val flows = ks.map(k => if (top.size >= k) top(k - 1).flow else 0.0)
      for ((k, f) <- ks.zip(flows)) println(f"$name%-16s${motif.name}%-10s$k%8d$f%12.3f")
      assert(flows.nonEmpty && flows.head > 0, s"$name: expected at least one instance")
      assert(flows.toSeq == flows.sorted(Ordering[Double].reverse),
        s"$name: k-th flow must be non-increasing in k")
    }
  }

  test("Figure 12: heap top-1 vs DP top-1 runtime") {
    banner(s"FIGURE 12 — phase P2 top-1 via heap vs via DP (δ = default)")
    println(f"${"Dataset"}%-16s${"motif"}%-10s${"matches"}%9s${"flow"}%10s${"heap(s)"}%10s${"DP(s)"}%10s${"DP/heap"}%9s")
    for ((name, df, delta, _) <- datasets) {
      val motif = motifFor(name)
      // As the paper does, time only phase P2: each match's series, copied out
      // of G_T once, then both top-1 modules on the driver over the same rows.
      val rows = FlowMotifSearch.perMatch(df, motif)((_, series) => series.map(_.toVector)).collect()
      def heap = rows.foldLeft(0.0)((best, r) => TopKEnumerator.topK(r, delta, 1).foldLeft(best)(_ max _.flow))
      def dp = rows.foldLeft(0.0)((best, r) => best max MaxFlowDP.maxFlow(r, delta))
      heap; dp // untimed pass: JIT warmup for both
      val (viaHeap, tHeap) = timed(heap)
      val (viaDP, tDP) = timed(dp)
      assert(math.abs(viaHeap - viaDP) < 1e-6, s"$name: heap and DP top-1 flows disagree")
      println(f"$name%-16s${motif.name}%-10s${rows.length}%9d$viaDP%10.3f$tHeap%10.4f$tDP%10.4f${tDP / tHeap}%9.2f")
    }
  }
}
