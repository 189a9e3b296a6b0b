package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CompatibilityMatrix, Estimators, GraphOps, LinBP, Sketch, Sketches, SparseGraph}
import repro.eval.Accuracy
import repro.linalg.Dense

/** Everything an operation needs: the inputs already loaded in Spark, and
  * the driver-side references its outputs are checked against.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val in: Inputs, val edges: DataFrame,
                val truth: DataFrame, val seeds: DataFrame) {
  val rhoRef: Double = in.spectralRadius()
  val seedPairs: Dense = in.seedPairCounts
  val gs: Dense = in.goldStandard

  /** A new graph over the cached edge table, so no lazy value of a
    * previous operation's graph (degrees, m) is reused.
    */
  def freshGraph: SparseGraph = SparseGraph(in.n, edges)

  def span[T](name: String)(body: => T): T = tracer.span(name)(body)
}

/** What an operation produced: the estimator's Ĥ, the LinBP accuracy, and
  * the checks it failed.
  */
final case class OpOut(estimator: String, h: Dense, accuracy: Double, failures: Seq[String]) {
  def hL2(gs: Dense): Double = h.frobDist(gs)
}

/** One benchmark workload: input sizes and the pipeline an operation runs. */
final case class Workload(name: String, n: Int, m: Long, k: Int, f: Double, op: Ctx => OpOut) {
  def inputs(seed: Long): Inputs =
    Inputs.planted(n, m, k, CompatibilityMatrix.planted(k, Workloads.Skew), Workloads.Gamma, f, seed)
}

object Workloads {
  val Gamma = 0.3 // power-law degree exponent of §5
  val Skew = 8.0  // H = CompatibilityMatrix.planted(k, 8), as in §5
  val S = 0.5     // LinBP convergence parameter, ε = s/(ρ(W)·ρ(H̃))
  // Iteration counts are below the paper's (25 power iterations, 10 LinBP
  // iterations) so that an operation fits the benchmark's time budget:
  // every job costs tens of milliseconds, whatever the graph size.
  val RhoIters = 5
  val LinbpIters = 5
  val Lmax = 5
  val Restarts = 10
  val HoldoutEvals = 4 // the initial Nelder–Mead simplex for k = 3

  val all: Seq[Workload] = Seq(
    Workload("label-20k", 20000, 100000, 3, 0.01, label),
    Workload("holdout-2k", 2000, 10000, 3, 0.05, holdout))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (have: ${all.map(_.name).mkString(", ")})"))

  /** ρ → sketch → DCEr → LinBP → score: the full paper pipeline. MCE and
    * LCE also run on the sketch, as the other sketch-based estimators.
    */
  def label(c: Ctx): OpOut = {
    val g = c.freshGraph
    val rho = c.span("rho")(GraphOps.spectralRadius(g, RhoIters))
    val sk = c.span("sketch")(Sketch.compute(g, c.seeds, c.in.k, Lmax))
    val est = c.span("dcer")(Estimators.dcer(sk, Lmax, Estimators.DefaultLambda, 1, Restarts))
    c.tracer.count("dcer.evals", est.evals)
    val mce = c.span("mce")(Estimators.mce(sk))
    val lce = c.span("lce")(Estimators.lce(sk))
    val f = c.span("linbp")(LinBP.run(g, c.seeds, est.h, LinbpIters, S, Some(rho)))
    val acc = c.span("score")(Accuracy.accuracyOf(GraphOps.argmaxLabels(f), c.truth, c.seeds))
    c.span("check") {
      OpOut("dcer", est.h, acc, checkGraph(c, g) ++ checkRho(c, rho) ++ checkSketch(c, sk) ++
        checkH("dcer", est.h) ++ checkH("mce", mce.h) ++ checkH("lce", lce.h) ++ checkAccuracy(c, acc))
    }
  }

  /** ρ → Holdout (Nelder–Mead over LinBP runs) → LinBP → score. */
  def holdout(c: Ctx): OpOut = {
    val g = c.freshGraph
    val rho = c.span("rho")(GraphOps.spectralRadius(g, RhoIters))
    val est = c.span("holdout")(
      Estimators.holdout(g, c.seeds, c.in.k, b = 1, maxEvals = HoldoutEvals, iterations = LinbpIters, s = S,
        rhoW = Some(rho)))
    c.tracer.count("holdout.evals", est.evals)
    val f = c.span("linbp")(LinBP.run(g, c.seeds, est.h, LinbpIters, S, Some(rho)))
    val acc = c.span("score")(Accuracy.accuracyOf(GraphOps.argmaxLabels(f), c.truth, c.seeds))
    c.span("check") {
      val budget = if (est.evals == HoldoutEvals) Nil else Seq(s"holdout.evals=${est.evals}, budget $HoldoutEvals")
      OpOut("holdout", est.h, acc, checkGraph(c, g) ++ checkRho(c, rho) ++ checkH("holdout", est.h) ++
        checkAccuracy(c, acc) ++ budget)
    }
  }

  // --- output checks; each returns the failures it found -----------------

  def checkGraph(c: Ctx, g: SparseGraph): Seq[String] =
    if (g.m == c.in.m) Nil else Seq(s"SparseGraph.m=${g.m}, expected ${c.in.m}")

  /** M_NB⁽¹⁾ must equal the driver's labeled–labeled class-pair counts. */
  def checkSketch(c: Ctx, sk: Sketches): Seq[String] =
    if (sk.mNB(0) == c.seedPairs) Nil else Seq(s"sketch M_NB(1) differs from driver counts:\n${sk.mNB(0)}")

  /** ρ(W) is at most the converged reference, and large enough that
    * ε·ρ_true·ρ(H̃) = s·ρ_true/ρ < 1 (Eq. 2).
    */
  def checkRho(c: Ctx, rho: Double): Seq[String] =
    if (!rho.isFinite) Seq(s"ρ(W)=$rho")
    else if (rho > c.rhoRef * (1 + 1e-9)) Seq(s"ρ(W)=$rho above converged reference ${c.rhoRef}")
    else if (S * c.rhoRef / rho >= 1) Seq(s"ρ(W)=$rho too small: s·ρ_true/ρ = ${S * c.rhoRef / rho} ≥ 1")
    else Nil

  /** Ĥ is finite, symmetric and row-stochastic. */
  def checkH(name: String, h: Dense): Seq[String] = {
    val k = h.rows
    val bad = h.data.exists(x => !x.isFinite) ||
      (0 until k).exists(i => (0 until k).exists(j => math.abs(h(i, j) - h(j, i)) > 1e-9)) ||
      h.rowSums.exists(s => math.abs(s - 1) > 1e-9)
    if (bad) Seq(s"$name Ĥ not symmetric row-stochastic:\n$h") else Nil
  }

  /** Accuracy is finite and well above the 1/k of a random labeling. */
  def checkAccuracy(c: Ctx, acc: Double): Seq[String] = {
    val floor = 1.5 / c.in.k
    if (acc.isFinite && acc >= floor) Nil else Seq(f"accuracy $acc below $floor%.3f")
  }
}
