package repro.integration

import repro.SparkSpec
import repro.core._
import repro.eval.{Accuracy, RealWorld}
import repro.graphgen.{DegreeDist, PlantedGraph}

/** Full pipeline: generate → sample seeds → sketch → estimate → propagate
  * → score, mirroring the paper's end-to-end experiments (Fig. 3a).
  */
class EndToEndSpec extends SparkSpec {

  private val k = 3
  private lazy val h = CompatibilityMatrix.planted(k, 8.0)
  private lazy val gen = PlantedGraph.generate(
    spark, n = 5000, m = 25000, alpha = Array.fill(k)(1.0 / k), h = h,
    dist = DegreeDist.PowerLaw(0.3), seed = 77)
  private lazy val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)

  test("sparse labels: DCEr-estimated H labels within 0.05 of GS accuracy") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.01, seed = 1) // 50 of 5000
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val est = Estimators.dcer(sk, restarts = 10, seed = 2).h
    val Seq(accGS, accEst) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, est))
    assert(accGS > 0.5, s"sanity: GS labeling works, got $accGS")
    assert(accEst > accGS - 0.05, s"DCEr $accEst vs GS $accGS")
  }

  test("one sketch serves every estimator (factorization reuse)") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.05, seed = 3)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val ests = Map(
      "MCE" -> Estimators.mce(sk).h,
      "LCE" -> Estimators.lce(sk).h,
      "DCE" -> Estimators.dce(sk).h,
      "DCEr" -> Estimators.dcer(sk, restarts = 5, seed = 4).h)
    // Every estimator must recover the GS *direction* (what LinBP uses);
    // LCE's magnitude is shrunk by its quadratic term, so L2 would be
    // unfair to it — the paper scores LCE by accuracy only (Fig. 6f).
    val gsC = CompatibilityMatrix.centered(gs)
    ests.foreach { case (name, est) =>
      val c = CompatibilityMatrix.centered(est)
      val cos = c.dot(gsC) / (c.frobNorm * gsC.frobNorm)
      assert(cos > 0.8, s"$name misaligned with GS: cosine $cos")
    }
    assert(ests("DCEr").frobDist(gs) <= ests("MCE").frobDist(gs) + 0.05)
  }

  test("heterophily-aware estimation beats the homophily baselines end-to-end") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.02, seed = 5)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val est = Estimators.dcer(sk, restarts = 5, seed = 6).h
    val Seq(accDcer) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(est))
    val accHarm = Accuracy.accuracyOf(
      GraphOps.argmaxLabels(Baselines.harmonic(gen.graph, seeds, k)), gen.labels, seeds)
    assert(accDcer > accHarm + 0.1, s"DCEr $accDcer vs harmonic $accHarm")
  }

  test("real-world surrogate (Pokec-like, heterophilous k=2) end-to-end") {
    val spec = RealWorld.pokecGender.scaled(20000)
    val g = RealWorld.generate(spark, spec, seed = 7)
    val gsRW = Accuracy.measuredGS(g.graph, g.labels, spec.k)
    val seeds = Accuracy.sampleSeeds(g.labels, 0.02, seed = 8)
    val sk = Sketch.compute(g.graph, seeds, spec.k, lmax = 5)
    val est = Estimators.dcer(sk, restarts = 10, seed = 9).h
    assert(est.frobDist(gsRW) < 0.15, s"est:\n$est\ngs:\n$gsRW")
    val Seq(accGS, accEst) = Accuracy.endToEnd(g.graph, g.labels, seeds, Seq(gsRW, est))
    assert(accEst > accGS - 0.05, s"est $accEst vs GS $accGS")
  }

  test("the two-value heuristic matches DCEr only when GS really is two-valued (Fig. 12)") {
    // On the planted skew matrix the H/L pattern is exact, so the heuristic
    // performs comparably; this is the paper's favorable case.
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.02, seed = 10)
    val hHeur = Heuristics.twoValue(gs)
    val Seq(accHeur, accGS) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(hHeur, gs))
    assert(accHeur > accGS - 0.1, s"heuristic $accHeur vs GS $accGS on a two-valued GS")
  }
}
