package repro.core

import scala.concurrent.{Await, Future}
import scala.concurrent.duration.Duration
import org.apache.spark.sql.DataFrame
import repro.eval.Accuracy
import repro.linalg.Dense

/** Compatibility estimation methods of Section 4.
  *
  * All sketch-based methods (MCE, LCE, DCE, DCEr) take a precomputed
  * [[Sketches]] — the O(k²·ℓmax) factorized graph representation — so the
  * optimization itself is independent of the graph size, which is the
  * paper's central scalability claim. Holdout is the textbook baseline
  * that instead runs inference (LinBP) as a subroutine on every
  * candidate H.
  */
object Estimators {

  val DefaultLmax = 5
  val DefaultLambda = 10.0
  val DefaultRestarts = 10

  /** @param h               estimated compatibility matrix
    * @param energy          final objective value
    * @param evals           optimizer iterations spent, restarts included
    *                        (Holdout: objective evaluations)
    * @param gradNorm        final gradient L2 norm of the kept run (NaN
    *                        for the gradient-free Holdout)
    * @param converged       the kept run's gradient fell below the tolerance
    * @param iterations      iterations of the kept run
    * @param restartEnergies DCEr: the final energy of every restart, in
    *                        start order
    * @param stop            why the kept run's optimizer stopped (None
    *                        for Holdout)
    */
  final case class EstimationResult(
      h: Dense,
      energy: Double,
      evals: Int,
      gradNorm: Double = Double.NaN,
      converged: Boolean = false,
      iterations: Int = 0,
      restartEnergies: Seq[Double] = Nil,
      stop: Option[BFGS.Stop] = None) {

    /** Highest minus lowest restart energy; 0 without restarts. */
    def restartSpread: Double = if (restartEnergies.isEmpty) 0.0 else restartEnergies.max - restartEnergies.min
  }

  /** The estimate at the optimum of a [[BFGS]] run. */
  private def fromBFGS(r: BFGS.Result, k: Int): EstimationResult =
    EstimationResult(CompatibilityMatrix.fromFree(r.x, k), r.value, r.iters, r.gradNorm, r.converged, r.iters, stop = Some(r.stop))

  /** Distance weights w_ℓ = λ^{ℓ−1}, normalized to sum 1 (normalizing
    * rescales the objective without moving its optimum, and keeps
    * gradients well-scaled for λ = 10, ℓmax = 5 where raw w₅ = 10⁴).
    */
  def weights(lmax: Int, lambda: Double): Array[Double] = {
    val raw = Array.tabulate(lmax)(i => math.pow(lambda, i.toDouble))
    val s = raw.sum
    raw.map(_ / s)
  }

  /** DCE energy and gradient over the free parameters.
    *
    *   E(h) = Σ_ℓ w_ℓ·‖H(h)^ℓ − Z_ℓ‖²
    *   G    = Σ_ℓ 2·w_ℓ·(ℓ·H^{2ℓ−1} − Σ_{r=0}^{ℓ−1} H^r·Z_ℓ·H^{ℓ−r−1})
    *
    * (Prop. 4.7; G is then contracted with the structure matrices to
    * respect symmetry + stochasticity.)
    */
  def dceEnergyGrad(targets: IndexedSeq[Dense], w: Array[Double])(
      hFree: Array[Double]): (Double, Array[Double]) = {
    val lmax = targets.length
    val k = targets.head.rows
    val h = CompatibilityMatrix.fromFree(hFree, k)
    // pows(p) = H^p for p ∈ [0, 2·lmax−1]
    val pows = new Array[Dense](2 * lmax)
    pows(0) = Dense.eye(k)
    for (p <- 1 until 2 * lmax) pows(p) = pows(p - 1) * h
    var energy = 0.0
    var g = Dense.zeros(k, k)
    for (l <- 1 to lmax) {
      val z = targets(l - 1)
      val diff = pows(l) - z
      energy += w(l - 1) * diff.dot(diff)
      var cross = Dense.zeros(k, k)
      for (r <- 0 until l) cross = cross + pows(r) * z * pows(l - 1 - r)
      g = g + (pows(2 * l - 1).scale(l.toDouble) - cross).scale(2.0 * w(l - 1))
    }
    (energy, CompatibilityMatrix.contractGradient(g))
  }

  /** Myopic Compatibility Estimation (§4.3): the closest symmetric
    * doubly-stochastic matrix to the normalized neighbor statistics P̂⁽¹⁾.
    * Equivalent to DCE with ℓmax = 1 (and convex); the other normalization
    * variants are `dce(sk, lmax = 1, variant = v)`.
    */
  def mce(sk: Sketches): EstimationResult = dce(sk, lmax = 1, lambda = 1.0)

  /** Linear Compatibility Estimation (§4.2): minimize ‖X − W·X·H‖².
    *
    * Factorized onto the sketches (see DESIGN §3):
    *   E(H) = n_L − 2·⟨M⁽¹⁾, H⟩ + ⟨H, M⁽²⁾_full·H⟩,
    *   ∂E/∂H = −2·M⁽¹⁾ + 2·M⁽²⁾_full·H
    * with M⁽¹⁾ = XᵀWX and M⁽²⁾_full = XᵀW²X (raw counts, full paths).
    * Convex, so a single descent run suffices.
    */
  def lce(sk: Sketches): EstimationResult = {
    require(sk.lmax >= 2, "LCE needs sketches up to length 2 (M⁽²⁾ = XᵀW²X)")
    val k = sk.k
    val m1 = sk.mFull(0)
    val c = sk.mFull(1)
    def fg(hFree: Array[Double]): (Double, Array[Double]) = {
      val h = CompatibilityMatrix.fromFree(hFree, k)
      val e = sk.nLabeled - 2.0 * m1.dot(h) + h.dot(c * h)
      val g = (c * h).scale(2.0) - m1.scale(2.0)
      (e, CompatibilityMatrix.contractGradient(g))
    }
    fromBFGS(BFGS.minimize(fg, CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k))), k)
  }

  /** Distant Compatibility Estimation (§4.4–4.5): fit H^ℓ against the
    * non-backtracking statistics P̂_NB⁽ℓ⁾ for ℓ ∈ [ℓmax], weighted by λ.
    *
    * @param init optional start (free-parameter vector); defaults to the
    *             uniform 1/k start the paper uses
    */
  def dce(
      sk: Sketches,
      lmax: Int = DefaultLmax,
      lambda: Double = DefaultLambda,
      variant: Int = 1,
      init: Option[Array[Double]] = None): EstimationResult = {
    require(lmax <= sk.lmax, s"sketches only go to ℓ=${sk.lmax}, asked for $lmax")
    val targets = (1 to lmax).map(sk.pNB(_, variant))
    val w = weights(lmax, lambda)
    val x0 = init.getOrElse(CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(sk.k)))
    fromBFGS(BFGS.minimize(dceEnergyGrad(targets, w), x0), sk.k)
  }

  /** The DCEr start points (§4.8) in free parameters: the uniform point
    * 1/k, then ``restarts`` − 1 points 1/k ± δ in random hyper-quadrants of
    * the k*-dimensional parameter space (δ = 1/(2k²) < 1/k²), drawn from
    * ``seed``.
    */
  def restartPoints(k: Int, restarts: Int, seed: Long): Seq[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    val delta = 0.5 / (k * k)
    CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k)) +:
      Seq.fill(math.max(0, restarts - 1))(
        Array.fill(CompatibilityMatrix.numFree(k))(1.0 / k + (if (rnd.nextBoolean()) delta else -delta)))
  }

  /** DCE with restarts (§4.8): rerun DCE from every [[restartPoints]] and
    * keep the lowest-energy solution, the first on a tie. The first start
    * is always the uniform point, so DCEr(r=1) ≡ DCE. The restarts are
    * independent, so they run concurrently on the global execution context
    * (one thread per core); their results are combined in start order, so
    * the result does not depend on which finishes first.
    */
  def dcer(
      sk: Sketches,
      lmax: Int = DefaultLmax,
      lambda: Double = DefaultLambda,
      variant: Int = 1,
      restarts: Int = DefaultRestarts,
      seed: Long = 0): EstimationResult = {
    import scala.concurrent.ExecutionContext.Implicits.global
    val runs = restartPoints(sk.k, restarts, seed).map(s0 => Future(dce(sk, lmax, lambda, variant, init = Some(s0))))
    val results = Await.result(Future.sequence(runs), Duration.Inf)
    results.minBy(_.energy).copy(evals = results.map(_.evals).sum, restartEnergies = results.map(_.energy))
  }

  /** Holdout baseline (§4.1): Nelder–Mead over the free parameters, where
    * each energy evaluation runs LinBP from Seedᵢ and scores accuracy on
    * Holdoutᵢ for b random 50/50 splits of the available labels:
    * E(H) = −Σᵢ Acc_{Qᵢ}(H). The labels are collected once, and split i
    * puts a node into Seedᵢ when [[GraphOps.uniform]](seed, i, node)
    * < 0.5, on the driver, so the splits depend on the seed and the labels,
    * not on how ``seedLabels`` is partitioned, and no seed enters a Spark
    * plan. The split index in the key keeps the split independent of
    * [[repro.eval.Accuracy.sampleSeeds]], which draws (seed, node): under
    * a shared seed the sampled seeds are the nodes with the smallest draws,
    * and a split on the same draws would put all of them into Seedᵢ.
    *
    * Nelder–Mead hands over its independent points as one batch (the
    * initial simplex, a shrink), and each split labels a whole batch with
    * one batched LinBP run ([[LinBP.beliefs]]) and scores it on the driver
    * ([[repro.eval.Accuracy.accuracies]]): both parts of a split are held on
    * the driver, so a batch starts one job per LinBP iteration and no other.
    * ρ(W) is ``rhoW`` if given, else
    * the graph's own [[SparseGraph.rho]], and every batch uses it. A split
    * with no seeds fails, naming it; one with nothing held out fails scoring.
    * Fewer than one split (``b`` < 1) fails before any read.
    */
  def holdout(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      b: Int = 1,
      maxEvals: Int = 40,
      iterations: Int = LinBP.DefaultIterations,
      s: Double = LinBP.DefaultS,
      seed: Long = 0,
      rhoW: Option[Double] = None): EstimationResult = {
    require(b >= 1, s"Holdout needs b >= 1 splits, got b = $b")
    val rho = LinBP.nonZeroRho(rhoW.getOrElse(g.rho))
    val labels = GraphOps.collectLabels(seedLabels, g.n, k)
    val splits = (1 to b).map { i =>
      val (seedPart, holdPart) = labels.nodes.indices.partition(r => GraphOps.uniform(seed, i, labels.nodes(r)) < 0.5)
      require(seedPart.nonEmpty, s"Holdout split $i of $b has no seeds: all ${labels.nodes.length} labels fell on its holdout side")
      (labels.select(seedPart), labels.select(holdPart))
    }
    def energies(batch: Seq[Array[Double]]): Seq[Double] = {
      val hs = batch.map(CompatibilityMatrix.fromFree(_, k))
      splits.map { case (seedPart, holdPart) =>
        Accuracy.accuracies(holdPart, seedPart, LinBP.beliefs(g, seedPart, hs, iterations, s, Some(rho)))
      }.transpose.map(-_.sum)
    }
    val x0 = CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k))
    val r = NelderMead.minimizeBatch(energies, x0, initialStep = 1.0 / (2 * k), maxEvals = maxEvals)
    EstimationResult(CompatibilityMatrix.fromFree(r.x, k), r.value, r.evals)
  }
}
