package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
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

  /** Run LinBP and return the final belief matrix F in the wide
    * (node, v0, …, v{k−1}) layout.
    *
    * Each iteration is one hop of [[GraphOps.multiply]] that carries the
    * node's own row of X along, with `X + ε·(W·F)·H̃` as column arithmetic
    * on the summed row.
    *
    * @param g          the graph (symmetric adjacency)
    * @param seedLabels (node, cls) seed labels; a class id outside [0, k)
    *                   fails the first iteration
    * @param h          compatibility matrix (centered or not — Thm. 3.1)
    * @param iterations fixed iteration count (paper: 10)
    * @param s          convergence parameter, ε = s/(ρ(W)·ρ(H̃))
    * @param rhoW       precomputed ρ(W); pass it when labeling the same
    *                   graph repeatedly (Holdout does), else it is
    *                   computed by distributed power iteration
    * @param center     propagate residuals (default) or raw frequencies
    */
  def run(
      g: SparseGraph,
      seedLabels: DataFrame,
      h: Dense,
      iterations: Int = 10,
      s: Double = 0.5,
      rhoW: Option[Double] = None,
      center: Boolean = true): DataFrame = {
    import GraphOps.{applyH, named, plus, values}
    val k = h.rows
    val hTilde = CompatibilityMatrix.centered(h)
    val rhoH = hTilde.spectralRadius()
    val x = if (center) GraphOps.centeredOneHot(seedLabels, k) else GraphOps.oneHot(seedLabels, k)
    if (rhoH < 1e-12) return x // uniform H carries no signal: F = X
    val eps = s / (nonZeroRho(rhoW.getOrElse(GraphOps.spectralRadius(g))) * rhoH)
    val hEff = (if (center) hTilde else h).scale(eps)
    val own = x.select(col("node") +: named(values(k), "x"): _*)
    val xRow = values(k, "x").map(coalesce(_, lit(0.0))) // null: not a seed
    var f = x
    for (_ <- 1 to iterations) {
      f = GraphOps.materialize(GraphOps.multiply(g.edges, f, own)
        .select(col("node") +: named(plus(xRow, applyH(values(k), hEff))): _*))
    }
    f
  }

  /** ρ(W), or a clear failure when it is 0: on a graph without edges
    * ε = s/(ρ(W)·ρ(H̃)) is undefined.
    */
  def nonZeroRho(rho: Double): Double = {
    require(rho > 0, s"ρ(W) = $rho: the graph has no edges, so ε = s/(ρ(W)·ρ(H̃)) is undefined")
    rho
  }

  /** LinBP energy E(F) = ‖F − X − W·F·H‖² (Prop. 3.2), for a given
    * effective (already ε-scaled) H. Zero at the fixed point.
    */
  def energy(g: SparseGraph, x: DataFrame, f: DataFrame, hEff: Dense): Double = {
    import GraphOps.{applyH, minus, named, plus, values}
    val k = hEff.rows
    val own = Seq("x" -> x, "f" -> f).map { case (p, m) => m.select(col("node") +: named(values(k), p): _*) }
    val Seq(xr, fr) = Seq("x", "f").map(values(k, _).map(coalesce(_, lit(0.0))))
    val resid = minus(fr, plus(xr, applyH(values(k), hEff)))
    val r = GraphOps.multiply(g.edges, f, own: _*).agg(sum(resid.map(e => e * e).reduce(_ + _))).first()
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }
}
