package repro.core

import org.apache.spark.sql.{Column, DataFrame}
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
    * The state holds one row per node: (node, lbl, l, a = N_NB⁽ℓ⁾,
    * p = N_NB⁽ℓ⁻¹⁾, f = N⁽ℓ⁾), starting from state 0 = (a = X, p = 0,
    * f = X) over the seeds. Each ℓ is one hop of [[GraphOps.multiply]] for
    * both families that carries the node's own state and degree along. The
    * ℓ-dependent c of (D − c·I) is computed from the state's l, and every
    * column but lbl is non-null, so all hops, of this call and of later
    * ones, run one plan. Xᵀ·N is a sum by (l, lbl) over the labeled rows of
    * every state, taken in one job over the per-state scans (a union of
    * identical plans would compile one class per child). A seed class id
    * outside [0, k) fails state 0, and seeds that miss a class of [0, k)
    * fail after the collect, where that class has no row.
    */
  def compute(g: SparseGraph, seedLabels: DataFrame, k: Int, lmax: Int): Sketches = {
    require(lmax >= 1, "lmax must be >= 1")
    import GraphOps.{diagScale, materialize, minus, named, values}
    val (a, p, q, f) = (values(k, "a"), values(k, "p"), values(k, "q"), values(k, "f"))
    def orZero(c: Column): Column = coalesce(c, lit(0.0))
    def stateRow(l: Column, a: Seq[Column], p: Seq[Column], f: Seq[Column]): Seq[Column] =
      (col("node") +: col("lbl") +: l.as("l") +: named(a, "a")) ++ named(p, "p") ++ named(f, "f")

    val x = (0 until k).map(j => when(col("lbl") === j, 1.0).otherwise(0.0))
    var state = materialize(seedLabels.select(col("node"), GraphOps.checkedClass(col("cls"), k).as("lbl"))
      .select(stateRow(lit(0), x, x.map(_ => lit(0.0)), x): _*))

    // N⁽ℓ⁾ = W·N⁽ℓ⁻¹⁾; N_NB⁽ℓ⁾ = W·N_NB⁽ℓ⁻¹⁾ − (D − c·I)·N_NB⁽ℓ⁻²⁾ with c = 0
    // up to ℓ = 2 (at ℓ = 2 it subtracts D·X) and 1 after (Prop. 4.3); at
    // ℓ = 1 the subtracted N_NB⁽⁻¹⁾ is p = 0.
    val taken = coalesce(col("l"), lit(0)) // hops behind the sent state
    val c = when(taken >= 2, 1.0).otherwise(0.0)
    val next = stateRow(taken + 1, minus(a, diagScale(q.map(orZero), orZero(col("deg")), c)), p.map(orZero), f)
    val states = (1 to lmax).map { _ =>
      val send = state.select(col("node") +: (a ++ f): _*)
      val own = state.select((col("node") +: col("lbl") +: col("l") +: named(a, "p")) ++ named(p, "q"): _*)
      state = materialize(GraphOps.multiply(g.edges, send, own, g.degrees).select(next: _*))
      state
    }

    // Per (ℓ, class) over the labeled nodes: (count, Σa, Σf).
    val rows = g.edges.sparkSession.sparkContext
      .union(states.map(_.where(col("lbl").isNotNull).select((col("l") +: col("lbl") +: a) ++ f: _*).rdd))
      .map(r => (r.getInt(0), r.getInt(1)) -> (1.0 +: (2 until 2 + 2 * k).map(r.getDouble)).toArray)
      .reduceByKey((u, v) => u.indices.map(i => u(i) + v(i)).toArray)
      .collect().toSeq
    val missing = (0 until k).filterNot(c => rows.exists(_._1 == (1, c)))
    require(missing.isEmpty, s"no seed of class ${missing.mkString(", ")}: P̂ would have no evidence for it")
    def family(l: Int, offset: Int): Dense =
      GraphOps.classMatrix(k, rows.collect { case ((`l`, lbl), sums) => lbl -> sums.slice(1 + offset, 1 + offset + k) })
    val nLabeled = rows.collect { case ((1, _), sums) => sums(0).toLong }.sum
    Sketches(k, lmax, nLabeled, (1 to lmax).map(family(_, k)), (1 to lmax).map(family(_, 0)))
  }
}
