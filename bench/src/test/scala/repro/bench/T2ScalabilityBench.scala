package repro.bench

import repro.SparkSpec
import repro.tables.T2Scalability

/** T2 — Fig. 3b / Fig. 6k: estimation vs propagation wall-clock. */
class T2ScalabilityBench extends SparkSpec {

  private lazy val rows = T2Scalability.run(spark)

  test("T2: print table") {
    println(T2Scalability.format(rows))
    assert(rows.size == 4)
  }

  test("T2: sketch-based optimization is graph-size independent (Fig. 2 step 2)") {
    // Optimization times vary with the noise in the sketches but must not
    // scale with m: the largest graph's DCEr opt stays within a small
    // constant factor of the smallest graph's.
    val first = rows.head.dcerMs.max(1L)
    val last = rows.last.dcerMs.max(1L)
    val mRatio = rows.last.m.toDouble / rows.head.m
    assert(last.toDouble / first < mRatio / 2,
      s"opt time grew ${last.toDouble / first}x over a ${mRatio}x bigger graph")
  }

  test("T2: DCEr estimation is cheaper than propagation for the largest graph (Result 5)") {
    val r = rows.last
    val estimation = r.sketchMs + r.dcerMs
    val propagation = r.rhoMs + r.propagateMs
    assert(estimation < propagation,
      s"estimation ${estimation}ms vs propagation ${propagation}ms at m=${r.m}")
  }

  test("T2: Holdout is orders of magnitude slower than DCEr (Result 5)") {
    val r = rows.find(_.holdoutMs > 0).get
    // Holdout ran only ~10 objective evaluations; the paper's full method
    // needs hundreds. Even so it must dwarf sketch+DCEr on the same graph.
    assert(r.holdoutMs > 5 * (r.sketchMs + r.dcerMs),
      s"holdout ${r.holdoutMs}ms vs DCEr ${r.sketchMs + r.dcerMs}ms")
  }

  test("T2: MCE optimization is the cheapest, DCE ≈ DCEr in sketch-dominated total") {
    rows.foreach { r =>
      assert(r.mceMs <= r.dcerMs + 50, s"n=${r.n}: MCE ${r.mceMs}ms vs DCEr ${r.dcerMs}ms")
      val dceTotal = r.sketchMs + r.dceMs
      val dcerTotal = r.sketchMs + r.dcerMs
      assert(dcerTotal < 3 * dceTotal,
        s"n=${r.n}: DCEr total ${dcerTotal}ms vs DCE total ${dceTotal}ms")
    }
  }
}
