package repro.bench

import repro.jobs.Table4Job

/** Paper Table 4: structural matches and phase-P1 runtime per motif/dataset,
  * computed and printed by [[Table4Job]].
  */
class Table4Bench extends BenchBase {

  test("Table 4: structural matches and P1 runtime") {
    banner("TABLE 4 — structural matches (phase P1) per motif")
    for ((_, rows) <- Table4Job.table(spark, benchSf)) {
      // Shape assertions from the paper's Table 4:
      val byName = rows.map { case (motif, matches, _) => motif -> matches }.toMap
      assert(byName("M(3,2)") > 0, "2-edge chains must exist")
      assert(byName("M(5,4)") <= byName("M(3,2)"),
        "longer chains have no more structural matches (Table 4 shape)")
      assert(byName("M(3,3)") <= byName("M(3,2)"),
        "cycles are no more frequent than same-size chains")
    }
  }
}
