package repro.core

import org.apache.spark.sql.DataFrame
import repro.linalg.Dense

/** Homophily-assuming SSL baselines (§2.4), used by the paper's sanity
  * check (Fig. 6i): on graphs with arbitrary compatibilities these
  * methods collapse, which is the motivation for compatibility-aware
  * propagation in the first place.
  *
  * Both iterate on the driver with one [[GraphOps.multiply]] per step and
  * return the n×k beliefs F there. An isolated node's 1/deg is 0.
  */
object Baselines {

  /** Harmonic functions method (Zhu et al. [65]): iterate F ← D⁻¹·W·F
    * with labeled nodes clamped to their one-hot rows.
    */
  def harmonic(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      iterations: Int = 20): Dense = {
    val labels = GraphOps.collectLabels(seedLabels, g.n, k)
    val x = labels.oneHot
    val inv = inverseDegrees(g)
    var f = x
    for (_ <- 1 to iterations) {
      val next = scaleRows(GraphOps.multiply(g, f), inv)
      for (node <- labels.nodes) System.arraycopy(x.data, node * k, next.data, node * k, k)
      f = next
    }
    f
  }

  /** MultiRankWalk (Lin & Cohen [33]): per class c, a random walk with
    * restarts to that class's seeds — F ← ᾱ·U + α·W^col·F with U the
    * column-normalized seed indicator matrix (‖U_:c‖₁ = 1).
    */
  def multiRankWalk(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      alpha: Double = 0.85,
      iterations: Int = 20): Dense = {
    val labels = GraphOps.collectLabels(seedLabels, g.n, k)
    val perClass = labels.classes.groupBy(identity).map { case (c, members) => c -> members.length }
    val u = GraphOps.zeros(g.n, k)
    for ((node, c) <- labels.nodes.zip(labels.classes)) u.data(node * k + c) = 1.0 / perClass(c)
    val inv = inverseDegrees(g)
    var f = u
    for (_ <- 1 to iterations) {
      // W^col·F = W·D⁻¹·F: every sent row is scaled by its node's 1/deg.
      f = u.scale(1.0 - alpha) + GraphOps.multiply(g, scaleRows(f, inv)).scale(alpha)
    }
    f
  }

  /** 1/deg per node, 0 for an isolated node. */
  private def inverseDegrees(g: SparseGraph): Array[Double] = g.degrees.map(d => if (d > 0) 1.0 / d else 0.0)

  /** diag(s)·m: row i of ``m`` times s(i). */
  private def scaleRows(m: Dense, s: Array[Double]): Dense =
    new Dense(m.rows, m.cols, Array.tabulate(m.data.length)(e => m.data(e) * s(e / m.cols)))
}
