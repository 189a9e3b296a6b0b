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

  val DefaultIterations = 10 // §5.3
  val DefaultS = 0.5

  /** Run LinBP and return the final belief matrix F in the wide
    * (node, v0, …, v{k−1}) layout: [[runMany]] with the one H, its block
    * projected back to v0… A uniform H carries no signal, so F = X̃ and no
    * hop runs.
    *
    * @param g          the graph (symmetric adjacency)
    * @param seedLabels (node, cls) seed labels; a class id outside [0, k)
    *                   fails the first iteration
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
      center: Boolean = true): DataFrame = {
    import GraphOps.{named, values}
    runMany(g, seedLabels, Seq(h), iterations, s, rhoW, center)
      .select(col("node") +: named(values(h.rows, block(0))): _*)
  }

  /** Column prefix of block i in the state of [[runMany]]: b{i}v0… */
  def block(i: Int): String = s"b${i}v"

  /** LinBP under every H of ``hs`` at once, from the same seeds: one wide
    * state (node, b0v0, …, b0v{k−1}, b1v0, …) whose block i is the F under
    * ``hs(i)`` (columns [[block]](i)).
    *
    * Each iteration is one hop of [[GraphOps.multiply]] for all blocks,
    * carrying the node's own row of X̃ once; block i's `X̃ + ε_i·(W·F_i)·H̃_i`,
    * with ε_i = s/(ρ(W)·ρ(H̃_i)), is column arithmetic on the summed row. A
    * uniform H carries no signal: its block gets a zero effective H and
    * stays X̃, which labels like F = X̃. When no block carries signal, no hop
    * runs and ρ(W) is not needed. The initial state is checkpointed like
    * every later one, so the first hop runs the plan of all others.
    *
    * Parameters as for [[run]]; every H must be k×k for one k.
    */
  def runMany(
      g: SparseGraph,
      seedLabels: DataFrame,
      hs: Seq[Dense],
      iterations: Int = DefaultIterations,
      s: Double = DefaultS,
      rhoW: Option[Double] = None,
      center: Boolean = true): DataFrame = {
    import GraphOps.{applyH, named, plus, values}
    require(hs.nonEmpty, "runMany needs at least one H")
    val k = hs.head.rows
    require(hs.forall(h => h.rows == k && h.cols == k), s"every H must be $k×$k")
    lazy val rho = nonZeroRho(rhoW.getOrElse(g.rho))
    val hEffs = hs.map { h =>
      val hTilde = CompatibilityMatrix.centered(h)
      val rhoH = hTilde.spectralRadius()
      if (rhoH < 1e-12) Dense.zeros(k, k) else (if (center) hTilde else h).scale(s / (rho * rhoH))
    }
    val x = if (center) GraphOps.centeredOneHot(seedLabels, k) else GraphOps.oneHot(seedLabels, k)
    val f0 = x.select(col("node") +: hs.indices.flatMap(i => named(values(k), block(i))): _*)
    if (hEffs.forall(_.maxAbs == 0.0)) return f0
    var f = GraphOps.materialize(f0)
    val own = x.select(col("node") +: named(values(k), "x"): _*)
    val xRow = values(k, "x").map(coalesce(_, lit(0.0))) // null: not a seed
    val next = hEffs.zipWithIndex.flatMap { case (hEff, i) =>
      named(plus(xRow, applyH(values(k, block(i)), hEff)), block(i))
    }
    for (_ <- 1 to iterations) {
      f = GraphOps.materialize(GraphOps.multiply(g.edges, f, own).select(col("node") +: next: _*))
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
