package repro.core

import repro.SparkSpec
import repro.linalg.Dense
import repro.testutil.{DenseRef, LocalGraphs, SparkCounters}

class LinBPSpec extends SparkSpec {

  private val n = 30
  private val k = 3
  private lazy val edgeList = DenseRef.randomEdges(n, 70, seed = 31)
  private lazy val w = DenseRef.adjacency(n, edgeList)
  private lazy val g = LocalGraphs.graph(spark, n, edgeList)
  private lazy val labelMap = Map(0 -> 0, 7 -> 1, 13 -> 2, 21 -> 0, 28 -> 1)
  private lazy val labelsDf = LocalGraphs.labels(spark, labelMap)
  private lazy val h = CompatibilityMatrix.planted(3, 8.0)

  private def denseRun(iterations: Int, s: Double): Dense = {
    val hTilde = CompatibilityMatrix.centered(h)
    val eps = s / (w.spectralRadius() * hTilde.spectralRadius())
    val x = DenseRef.centeredOneHot(n, k, labelMap)
    DenseRef.linbp(w, x, hTilde.scale(eps), iterations)
  }

  test("distributed LinBP matches the dense reference after 1 iteration") {
    val got = LinBP.run(g, labelsDf, h, iterations = 1)
    assert(got.approxEquals(denseRun(1, 0.5), 1e-6))
  }

  test("distributed LinBP matches the dense reference after 10 iterations") {
    val got = LinBP.run(g, labelsDf, h, iterations = 10)
    assert(got.approxEquals(denseRun(10, 0.5), 1e-5))
  }

  test("precomputing rhoW gives identical results") {
    val a = LinBP.run(g, labelsDf, h)
    val b = LinBP.run(g, labelsDf, h, rhoW = Some(GraphOps.spectralRadius(g)))
    assert(a.approxEquals(b, 0))
  }

  test("Theorem 3.1: labels are identical with centered and uncentered propagation") {
    val rho = GraphOps.spectralRadius(g, 40)
    val fc = LinBP.run(g, labelsDf, h, rhoW = Some(rho), center = true)
    val fu = LinBP.run(g, labelsDf, h, rhoW = Some(rho), center = false)
    val lc = GraphOps.argmaxLabels(fc).classes
    val lu = GraphOps.argmaxLabels(fu).classes
    val agree = lc.indices.count(node => lc(node) == lu(node))
    assert(agree.toDouble / n > 0.95,
      s"only $agree/$n labels agree between centered and uncentered")
  }

  test("Theorem 3.1 on the dense reference: adding constants to H and X never changes labels") {
    val hTilde = CompatibilityMatrix.centered(h)
    val eps = 0.5 / (w.spectralRadius() * hTilde.spectralRadius())
    val x1 = DenseRef.centeredOneHot(n, k, labelMap)
    val f1 = DenseRef.linbp(w, x1, hTilde.scale(eps), 10)
    val f2 = DenseRef.linbp(w, x1.addScalar(0.2), hTilde.addScalar(0.1).scale(eps), 10)
    assert(DenseRef.argmaxRows(f1).toSeq == DenseRef.argmaxRows(f2).toSeq)
  }

  test("run rejects a seed class id outside [0,k)") {
    val bad = LocalGraphs.labels(spark, labelMap + (3 -> -1))
    val e = intercept[Exception](LinBP.run(g, bad, h, iterations = 1, rhoW = Some(1.0)))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains(s"class id outside [0,$k): -1")), e.toString)
  }

  test("run fails clearly on a graph without edges (ρ(W) = 0)") {
    import spark.implicits._
    val empty = GraphOps.fromUndirected(spark, n, Seq.empty[(Long, Long)].toDF("src", "dst"))
    val e = intercept[IllegalArgumentException](LinBP.run(empty, labelsDf, h))
    assert(e.getMessage.contains("ρ(W) = 0"), e.getMessage)
  }

  test("uniform H produces no propagation (F = X̃)") {
    val got = LinBP.run(g, labelsDf, CompatibilityMatrix.uniform(k))
    assert(got.approxEquals(DenseRef.centeredOneHot(n, k, labelMap), 1e-12))
  }

  test("every matrix of beliefs equals run with that H") {
    val rho = GraphOps.spectralRadius(g, 40)
    val hs = Seq(h, CompatibilityMatrix.uniform(k), CompatibilityMatrix.planted(3, 2.0),
      Dense.fromRows(Seq(Seq(0.2, 0.6, 0.2), Seq(0.6, 0.1, 0.3), Seq(0.2, 0.3, 0.5))))
    val seeds = GraphOps.collectLabels(labelsDf, n, k)
    for (center <- Seq(true, false)) {
      val many = LinBP.beliefs(g, seeds, hs, iterations = 4, rhoW = Some(rho), center = center)
      hs.zipWithIndex.foreach { case (hi, i) =>
        val one = LinBP.run(g, labelsDf, hi, iterations = 4, rhoW = Some(rho), center = center)
        assert(many(i).approxEquals(one, 1e-12), s"block $i, center = $center")
      }
    }
  }

  test("beliefs with only uniform H runs no hop and needs no ρ(W)") {
    import spark.implicits._
    val empty = GraphOps.fromUndirected(spark, n, Seq.empty[(Long, Long)].toDF("src", "dst"))
    val u = CompatibilityMatrix.uniform(k)
    val many = LinBP.beliefs(empty, GraphOps.collectLabels(labelsDf, n, k), Seq(u, u))
    for (f <- many) assert(f.approxEquals(DenseRef.centeredOneHot(n, k, labelMap), 1e-12))
  }

  test("a non-finite belief fails the run, naming the H block and the iteration") {
    // ρ(W) = 1e-40 makes ε ≈ 1e40: the beliefs grow by ~1e40 per
    // iteration and overflow within 10 iterations.
    val e = intercept[ArithmeticException](LinBP.run(g, labelsDf, h, rhoW = Some(1e-40)))
    assert(e.getMessage.matches("(?s)LinBP: non-finite belief in H block 0 at iteration \\d+ .*"), e.getMessage)
  }

  test("Prop 3.2: the LinBP energy decreases toward the fixed point") {
    val hTilde = CompatibilityMatrix.centered(h)
    val rho = GraphOps.spectralRadius(g, 40)
    val eps = 0.5 / (rho * hTilde.spectralRadius())
    val x = GraphOps.collectLabels(labelsDf, n, k).centeredOneHot
    val hEff = hTilde.scale(eps)
    def f(iterations: Int) = LinBP.run(g, labelsDf, h, iterations = iterations, rhoW = Some(rho))
    val e2 = LinBP.energy(g, x, f(2), hEff)
    val e30 = LinBP.energy(g, x, f(30), hEff)
    assert(e30 < e2, s"e30=$e30 e2=$e2")
    assert(e30 < 1e-4, s"energy should be near 0 at convergence, got $e30")
  }

  test("energy of the seed matrix itself is positive (not a fixed point)") {
    val hTilde = CompatibilityMatrix.centered(h)
    val x = GraphOps.collectLabels(labelsDf, n, k).centeredOneHot
    assert(LinBP.energy(g, x, x, hTilde.scale(0.1)) > 0)
  }

  test("LinBP.run with 5 iterations starts 6 jobs: one collect of the seeds, one per iteration") {
    val rho = g.rho // builds the adjacency
    val seeds = GraphOps.materialize(labelsDf) // pins the read of a cached table (1 job)
    val jobs = SparkCounters.of(spark)(LinBP.run(g, seeds, h, iterations = 5, rhoW = Some(rho))).jobs
    assert(jobs == 6, s"$jobs jobs")
  }

  test("seed labels themselves are preserved with strong self-belief") {
    val f = LinBP.run(g, labelsDf, h, iterations = 10)
    val preds = GraphOps.argmaxLabels(f).classes
    // The residual seed belief dominates unless neighbors overwhelm it:
    // check most seeds keep their own class.
    val kept = labelMap.count { case (node, cls) => preds(node) == cls }
    assert(kept >= labelMap.size - 1, s"only $kept/${labelMap.size} seeds kept their label")
  }

  test("propagation labels a planted heterophilous graph far better than chance") {
    import repro.graphgen.{DegreeDist, PlantedGraph}
    val hPlanted = CompatibilityMatrix.planted(3, 8.0)
    val gen = PlantedGraph.generate(spark, 2000, 16000,
      Array(1.0 / 3, 1.0 / 3, 1.0 / 3), hPlanted, DegreeDist.Uniform, seed = 5)
    val seeds = repro.eval.Accuracy.sampleSeeds(gen.labels, 0.05, seed = 2)
    val Seq(acc) = repro.eval.Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(hPlanted))
    assert(acc > 0.6, s"accuracy $acc should beat 1/3 by a wide margin")
  }
}
