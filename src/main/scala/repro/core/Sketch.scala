package repro.core

import org.apache.spark.sql.DataFrame
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
  *
  * ``seedsPerClass`` holds the seeds of each class and
  * [[Sketches.evidence]] the labeled pairs per class, so a sketch shows
  * how much evidence each row of P̂ rests on.
  */
final case class Sketches(
    k: Int,
    lmax: Int,
    mFull: IndexedSeq[Dense],
    mNB: IndexedSeq[Dense],
    seedsPerClass: IndexedSeq[Long]) {

  require(mFull.length == lmax && mNB.length == lmax, "need one matrix per length")
  require(seedsPerClass.length == k, "need one seed count per class")

  /** The labeled nodes, n_L: the seeds of every class. */
  def nLabeled: Long = seedsPerClass.sum

  /** The evidence behind P̂_NB⁽ℓ⁾ (1-based ℓ): the row sums of M_NB⁽ℓ⁾,
    * the non-backtracking labeled pairs that start in each class.
    */
  def evidence(l: Int): Array[Double] = mNB(l - 1).rowSums

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
    * The seeds are collected once into X; the iterates a = N_NB⁽ℓ⁾,
    * p = N_NB⁽ℓ⁻¹⁾ and f = N⁽ℓ⁾ are n×k matrices on the driver, starting
    * from (a, p, f) = (X, 0, X). Each ℓ is one [[GraphOps.multiply]] of
    * [a | f] for both families; the (D − c·I)·p term and Xᵀ·N are array
    * arithmetic on the driver. A seed class id outside [0, k) and seeds
    * that miss a class of [0, k) fail before any hop. The seeds per class
    * are counted from the collected labels, with no job.
    */
  def compute(g: SparseGraph, seedLabels: DataFrame, k: Int, lmax: Int): Sketches = {
    require(lmax >= 1, "lmax must be >= 1")
    val labels = GraphOps.collectLabels(seedLabels, g.n, k)
    val seedsPerClass = Array.fill(k)(0L)
    labels.classes.foreach(seedsPerClass(_) += 1)
    val missing = (0 until k).filter(seedsPerClass(_) == 0)
    require(missing.isEmpty, s"no seed of class ${missing.mkString(", ")}: P̂ would have no evidence for it")
    val x = labels.oneHot
    val (n, xt) = (x.rows, x.t)

    // N⁽ℓ⁾ = W·N⁽ℓ⁻¹⁾; N_NB⁽ℓ⁾ = W·N_NB⁽ℓ⁻¹⁾ − (D − c·I)·N_NB⁽ℓ⁻²⁾ with c = 0
    // up to ℓ = 2 (at ℓ = 2 it subtracts D·X) and 1 after (Prop. 4.3); at
    // ℓ = 1 the subtracted N_NB⁽⁻¹⁾ is p = 0.
    var (a, p, f) = (x, Dense.zeros(n, k), x)
    val (mNB, mFull) = (1 to lmax).map { l =>
      val wAF = GraphOps.multiply(g, GraphOps.hcat(Seq(a, f)))
      val next = GraphOps.columns(wAF, 0, k)
      if (l >= 2) {
        val (deg, c) = (g.degrees, if (l >= 3) 1.0 else 0.0)
        for (i <- 0 until n; j <- 0 until k) next.data(i * k + j) -= (deg(i) - c) * p.data(i * k + j)
      }
      p = a
      a = next
      f = GraphOps.columns(wAF, k, k)
      (xt * a, xt * f)
    }.unzip
    Sketches(k, lmax, mFull, mNB, seedsPerClass.toVector)
  }
}
