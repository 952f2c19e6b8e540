package repro.bench

import repro.jobs.Table3Job

/** Paper Table 3: dataset statistics, computed and printed by [[Table3Job]]. */
class Table3Bench extends BenchBase {

  test("Table 3: dataset statistics (paper values in EXPERIMENTS.md)") {
    banner("TABLE 3 — dataset statistics")
    for ((_, s) <- Table3Job.table(spark, benchSf)) {
      assert(s.nodes > 0 && s.edges > 0 && s.avgFlow > 0)
      assert(s.connectedPairs <= s.edges, "pairs cannot exceed multigraph edges")
    }
  }
}
