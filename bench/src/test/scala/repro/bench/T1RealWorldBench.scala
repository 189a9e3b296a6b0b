package repro.bench

import repro.SparkSpec
import repro.tables.T1RealWorld

/** T1 — Fig. 8 + Fig. 14 over the 8 real-world surrogates. */
class T1RealWorldBench extends SparkSpec {

  private lazy val rows = T1RealWorld.run(spark)

  test("T1: print table") {
    println(T1RealWorld.format(rows))
    assert(rows.size == 8)
  }

  test("T1: DCEr end-to-end accuracy tracks GS on every dataset (Result 6)") {
    rows.foreach { r =>
      assert(r.accDCEr > r.accGS - 0.07, s"${r.name}: DCEr ${r.accDCEr} vs GS ${r.accGS}")
    }
  }

  test("T1: DCEr estimate is closer to GS than MCE on most datasets at f=1%") {
    val wins = rows.count(r => r.l2DcerToGS <= r.l2MceToGS + 0.02)
    assert(wins >= 6, s"DCEr ~beats MCE on only $wins/8 datasets")
  }

  test("T1: estimation (sketch + opt) stays in seconds on every surrogate") {
    rows.foreach { r =>
      assert(r.sketchMs + r.optMs < 120000, s"${r.name} took ${r.sketchMs + r.optMs}ms")
    }
  }
}
