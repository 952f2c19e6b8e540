package repro.bench

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.data.InteractionGen

/** Shared scaffolding for the table/figure benches. Every bench prints
  * paper-style rows to stdout; `sbt "bench/test" | tee bench_output.txt`
  * regenerates every number reported in EXPERIMENTS.md.
  *
  * BENCH_SF scales all three datasets (default 1.0 = the scaled-down
  * substitutes described in DESIGN.md §4).
  */
trait BenchBase extends SparkSpec {
  val benchSf: Double = sys.env.getOrElse("BENCH_SF", "1.0").toDouble

  /** The three datasets, by label, with their paper-default (δ, φ). */
  lazy val datasets: Seq[(String, DataFrame, Long, Double)] = InteractionGen.networks.map { n =>
    (n.label, InteractionGen.generate(spark, n.config(benchSf)).cache(), n.delta, n.phi)
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def banner(s: String): Unit = {
    println()
    println("=" * 78)
    println(s)
    println("=" * 78)
  }
}
