package repro.core

import org.apache.spark.sql.DataFrame
import repro.linalg.Dense

/** Linearized Belief Propagation (Eq. 1 / Eq. 4), echo cancellation
  * dropped, as the paper does.
  *
  * The update iterated is `F ← X̃ + ε·W·F·H̃`, with H̃ the residual
  * (centered) compatibility matrix and ε = s / (ρ(W)·ρ(H̃)) so that the
  * convergence criterion Eq. (2) holds for s < 1 (paper uses s = 0.5 and
  * 10 iterations in §5.3). Theorem 3.1 guarantees the resulting labels do
  * not depend on the centering, which LinBPSpec verifies.
  */
object LinBP {

  val DefaultIterations = 10 // §5.3
  val DefaultS = 0.5

  /** Run LinBP and return the final n×k belief matrix F on the driver:
    * [[beliefs]] with the one H. A uniform H carries no signal, so F = X̃
    * and no hop runs.
    *
    * @param g          the graph (symmetric adjacency)
    * @param seedLabels (node, cls) seed labels; a class id outside [0, k)
    *                   fails before any hop
    * @param h          compatibility matrix (centered or not — Thm. 3.1)
    * @param iterations fixed iteration count (paper: 10)
    * @param s          convergence parameter, ε = s/(ρ(W)·ρ(H̃))
    * @param rhoW       ρ(W) to use instead of the graph's own [[SparseGraph.rho]]
    * @param center     propagate residuals (default) or raw frequencies
    */
  def run(
      g: SparseGraph,
      seedLabels: DataFrame,
      h: Dense,
      iterations: Int = DefaultIterations,
      s: Double = DefaultS,
      rhoW: Option[Double] = None,
      center: Boolean = true): Dense =
    beliefs(g, GraphOps.collectLabels(seedLabels, g.n, h.rows), Seq(h), iterations, s, rhoW, center).head

  /** The n×k belief matrices F under every H of ``hs``, from the same
    * ``seeds``, on the driver. Parameters as for [[run]]; every H must be
    * k×k for the seeds' k.
    *
    * X̃ (X when not centering) is built once from the seeds. Each
    * iteration is one [[GraphOps.multiply]] of all blocks side by side;
    * block i's `X̃ + (W·F_i)·H_eff,i`, with H_eff,i = ε_i·H̃_i and
    * ε_i = s/(ρ(W)·ρ(H̃_i)), is array arithmetic on the driver. A uniform H
    * carries no signal: its block stays X̃, which labels like F = X̃, and is
    * not propagated. When no block carries signal, no hop runs and ρ(W) is
    * not needed. A block with a non-finite belief after an iteration fails
    * the run, naming the block and the iteration, since ε overshot the
    * convergence bound of Eq. (2).
    */
  def beliefs(
      g: SparseGraph,
      seeds: Labels,
      hs: Seq[Dense],
      iterations: Int = DefaultIterations,
      s: Double = DefaultS,
      rhoW: Option[Double] = None,
      center: Boolean = true): Seq[Dense] = {
    require(hs.nonEmpty, "beliefs needs at least one H")
    val k = seeds.k
    require(hs.forall(h => h.rows == k && h.cols == k), s"every H must be $k×$k")
    val x = if (center) seeds.centeredOneHot else seeds.oneHot
    val rhoHs = hs.map(h => CompatibilityMatrix.centered(h).spectralRadius())
    val live = hs.indices.filter(rhoHs(_) >= 1e-12)
    if (live.isEmpty) return hs.map(_ => x)
    val rho = nonZeroRho(rhoW.getOrElse(g.rho))
    val hEffs = live.map { i => (if (center) CompatibilityMatrix.centered(hs(i)) else hs(i)).scale(s / (rho * rhoHs(i))) }
    var fs = live.map(_ => x)
    for (t <- 1 to iterations) {
      val wf = GraphOps.multiply(g, GraphOps.hcat(fs))
      fs = hEffs.indices.map(b => x + GraphOps.columns(wf, b * k, k) * hEffs(b))
      for (b <- fs.indices if !finite(fs(b).data))
        throw new ArithmeticException(s"LinBP: non-finite belief in H block ${live(b)} at iteration $t " +
          s"(ε = ${s / (rho * rhoHs(live(b)))}, ρ(W) = $rho): ε·ρ(W)·ρ(H̃) must stay below 1")
    }
    val propagated = live.zip(fs).toMap
    hs.indices.map(i => propagated.getOrElse(i, x))
  }

  private def finite(a: Array[Double]): Boolean = {
    var i = 0
    while (i < a.length && java.lang.Double.isFinite(a(i))) i += 1
    i == a.length
  }

  /** ρ(W), or a clear failure when it is 0: on a graph without edges
    * ε = s/(ρ(W)·ρ(H̃)) is undefined.
    */
  def nonZeroRho(rho: Double): Double = {
    require(rho > 0, s"ρ(W) = $rho: the graph has no edges, so ε = s/(ρ(W)·ρ(H̃)) is undefined")
    rho
  }

  /** LinBP energy E(F) = ‖F − X − W·F·H‖² (Prop. 3.2) of the n×k driver
    * matrices ``x`` and ``f``, for a given effective (already ε-scaled) H.
    * Zero at the fixed point.
    */
  def energy(g: SparseGraph, x: Dense, f: Dense, hEff: Dense): Double = {
    val resid = f - (x + GraphOps.multiply(g, f) * hEff)
    resid.data.foldLeft(0.0)((a, e) => a + e * e)
  }
}
