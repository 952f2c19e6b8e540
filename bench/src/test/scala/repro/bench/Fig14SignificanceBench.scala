package repro.bench

import repro.core.MotifCatalog
import repro.stats.Significance

/** Paper Figure 14: number of instances in flow-permuted random networks vs
  * the real network, with z-scores. Shape: the real count exceeds every
  * random count (empirical p = 0) and z ≫ 0.
  */
class Fig14SignificanceBench extends BenchBase {

  // Cyclic motifs are only assessed where cyclic flow is planted; the
  // passenger network moves along chains (DESIGN.md §4).
  private def motifsFor(name: String) =
    if (name.startsWith("Passenger")) Seq(MotifCatalog.M32, MotifCatalog.M43, MotifCatalog.M54)
    else Seq(MotifCatalog.M32, MotifCatalog.M33, MotifCatalog.M43, MotifCatalog.M44A)

  private val nRandom = 20

  test("Figure 14: significance of motifs vs flow-permuted randomizations") {
    banner(s"FIGURE 14 — real vs $nRandom flow-permuted randomizations")
    println(f"${"Dataset"}%-16s${"Motif"}%-10s${"real"}%8s${"mean"}%10s${"std"}%8s${"z"}%10s${"p"}%6s")
    for ((name, df, delta, phi) <- datasets; m <- motifsFor(name)) {
      val s = Significance.study(spark, df, m, delta, phi, nRandom, seed = 1234)
      println(f"$name%-16s${m.name}%-10s${s.real}%8d${s.mean}%10.1f${s.std}%8.1f${s.z}%10.2f${s.empiricalP}%6.2f")
      assert(s.real > 0, s"$name ${m.name}: no real instances to assess")
      assert(s.real > s.mean, s"$name ${m.name}: real should exceed the random mean")
      assert(s.empiricalP <= 0.2,
        s"$name ${m.name}: randomizations should almost always have fewer instances " +
        s"(real=${s.real}, random=${s.randomCounts})")
    }
  }
}
