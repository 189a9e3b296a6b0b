package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.linalg.Dense

/** The factorized graph representations ("sketches") of §4.3–4.6.
  *
  * For each path length ℓ ∈ [ℓmax] we hold the k×k co-occurrence counts
  *
  *   M⁽ℓ⁾     = Xᵀ·Wℓ·X          (all paths — biased, Thm. 4.1)
  *   M_NB⁽ℓ⁾  = Xᵀ·W_NB⁽ℓ⁾·X     (non-backtracking paths — consistent)
  *
  * computed without ever materializing Wℓ: the recurrence of Prop. 4.3
  * is pushed through the n×k matrices (Algorithm 4.4),
  *
  *   N_NB⁽ℓ⁾ = W·N_NB⁽ℓ⁻¹⁾ − (D−I)·N_NB⁽ℓ⁻²⁾,
  *   N_NB⁽¹⁾ = W·X,  N_NB⁽²⁾ = W·N_NB⁽¹⁾ − D·X,
  *
  * which costs O(m·k·ℓmax) total (Prop. 4.5). The sketches are O(k²·ℓmax)
  * — independent of the graph — so estimation runs on the driver.
  */
final case class Sketches(
    k: Int,
    lmax: Int,
    nLabeled: Long,
    mFull: IndexedSeq[Dense],
    mNB: IndexedSeq[Dense]) {

  require(mFull.length == lmax && mNB.length == lmax, "need one matrix per length")

  /** Observed length-ℓ statistics P̂⁽ℓ⁾ over all paths (1-based ℓ). */
  def pFull(l: Int, variant: Int = 1): Dense = Sketch.normalize(mFull(l - 1), variant)

  /** Observed length-ℓ statistics P̂_NB⁽ℓ⁾ over non-backtracking paths. */
  def pNB(l: Int, variant: Int = 1): Dense = Sketch.normalize(mNB(l - 1), variant)
}

object Sketch {

  /** Normalize a count matrix M into an observed statistics matrix P̂.
    *
    * Variant 1 (Eq. 9): row-stochastic, `diag(M·1)⁻¹·M` — the paper's
    * recommended default. Variant 2 (Eq. 10): symmetric LGC scaling
    * `diag(M·1)^{-1/2}·M·diag(M·1)^{-1/2}`. Variant 3 (Eq. 11): global
    * scale so the mean entry is 1/k.
    */
  def normalize(m: Dense, variant: Int): Dense = variant match {
    case 1 => m.rowNormalized
    case 2 =>
      val rs = m.rowSums.map(s => if (s > 0) 1.0 / math.sqrt(s) else 0.0)
      Dense.diag(rs) * m * Dense.diag(rs)
    case 3 =>
      val total = m.sum
      if (total == 0) Dense.fill(m.rows, m.cols)(1.0 / m.cols) else m.scale(m.cols / total)
    case other => throw new IllegalArgumentException(s"unknown normalization variant $other")
  }

  /** Algorithm 4.4: compute all sketches for ℓ ∈ [ℓmax] in one pass.
    *
    * Both the full-path and the non-backtracking families are produced
    * (the full-path family feeds the biased estimator P̂⁽ℓ⁾ used as the
    * comparison arm of Thm. 4.1, and ℓ ≤ 2 of it feeds LCE).
    *
    * The state holds one row per node: (node, deg, lbl, a = N_NB⁽ℓ⁾,
    * p = N_NB⁽ℓ⁻¹⁾, f = N⁽ℓ⁾), so each ℓ is one hop of [[GraphOps.multiply]]
    * that carries the node's own deg, lbl and previous rows along; the
    * full-path family rides the same group-by. Xᵀ·N is a sum by lbl over
    * the labeled rows of every state, collected once at the end. A seed
    * class id outside [0, k) fails the first hop.
    */
  def compute(g: SparseGraph, seedLabels: DataFrame, k: Int, lmax: Int): Sketches = {
    require(lmax >= 1, "lmax must be >= 1")
    import GraphOps.{diagScale, minus, named, names, values}
    val (a, p, q, f) = (values(k, "a"), values(k, "p"), values(k, "q"), values(k, "f"))
    val labeled = seedLabels.select(col("node"), GraphOps.checkedClass(col("cls"), k).as("lbl"))
    val x = (0 until k).map(j => when(col("lbl") === j, 1.0).otherwise(0.0))

    // ℓ = 1: N⁽¹⁾ = W·X for both families; the own rows bring deg, lbl and N⁽⁰⁾ = X.
    val hop1 = GraphOps.multiply(g.edges, labeled.select(col("node") +: named(x, "a"): _*),
      g.degrees, labeled.select(col("node") +: col("lbl") +: named(x, "p"): _*))
    val states = Vector.newBuilder[DataFrame]
    var state = GraphOps.materialize(hop1.select(
      (col("node") +: coalesce(col("deg"), lit(0.0)).as("deg") +: col("lbl") +: named(a, "a")) ++
        named(p.map(coalesce(_, lit(0.0))), "p") ++ named(a, "f"): _*))
    states += state

    for (l <- 2 to lmax) {
      // N⁽ℓ⁾ = W·N⁽ℓ⁻¹⁾; N_NB⁽ℓ⁾ = W·N_NB⁽ℓ⁻¹⁾ − (D − c·I)·N_NB⁽ℓ⁻²⁾ with
      // c = 0 at ℓ = 2 (subtracting D·X) and 1 after (Prop. 4.3). At ℓ = 2
      // both families start from N⁽¹⁾, so it is sent once.
      val send = state.select(col("node") +: (if (l == 2) a else a ++ f): _*)
      val own = state.select((col("node") +: col("deg") +: col("lbl") +: named(a, "p")) ++ named(p, "q"): _*)
      val c = if (l == 2) 0.0 else 1.0
      state = GraphOps.materialize(GraphOps.multiply(g.edges, send, own).select(
        (col("node") +: col("deg") +: col("lbl") +: named(minus(a, diagScale(q, col("deg"), c)), "a")) ++
          named(p, "p") ++ named(if (l == 2) a else f, "f"): _*))
      states += state
    }

    // One row per (ℓ, class): (l, lbl, cnt, Σa, Σf) over the labeled nodes.
    val sums = (names(k, "a") ++ names(k, "f")).map(c => sum(c).as(c))
    val rows = states.result().zipWithIndex
      .map { case (s, i) => s.where(col("lbl").isNotNull).select((lit(i + 1).as("l") +: col("lbl") +: a) ++ f: _*) }
      .reduce(_ unionByName _)
      .groupBy("l", "lbl").agg(count(lit(1)).as("cnt"), sums: _*)
      .collect().toSeq
    def family(l: Int, offset: Int): Dense =
      GraphOps.classMatrix(k, rows.filter(_.getInt(0) == l)
        .map(r => r.getInt(1) -> Array.tabulate(k)(j => r.getDouble(3 + offset + j))))
    val nLabeled = rows.filter(_.getInt(0) == 1).map(_.getLong(2)).sum
    Sketches(k, lmax, nLabeled, (1 to lmax).map(family(_, k)), (1 to lmax).map(family(_, 0)))
  }
}
