package repro.core

import repro.linalg.Dense

/** The k×k compatibility matrix H and its free-parameter encoding.
  *
  * A symmetric doubly-stochastic k×k matrix has k* = k(k−1)/2 degrees of
  * freedom (paper §4). Following Eq. (6), the free parameters are the
  * lower-triangle entries of the leading (k−1)×(k−1) block — for k = 3,
  * h = [H₀₀, H₁₀, H₁₁] — and every other entry is recovered from symmetry
  * and the unit row/column sums:
  *
  *   H_ij = H_ji                      (i < j < k−1)
  *   H_{i,k−1} = 1 − Σ_{ℓ<k−1} H_iℓ   (last column)
  *   H_{k−1,j} = H_{j,k−1}            (last row)
  *   H_{k−1,k−1} = 2 − k + Σ_{ℓ,r<k−1} H_ℓr
  *
  * All indices here are 0-based; "class k" in the paper is index k−1.
  */
object CompatibilityMatrix {

  /** Number of free parameters k* = k(k−1)/2. */
  def numFree(k: Int): Int = k * (k - 1) / 2

  /** Enumerate free-parameter positions (i, j) with j ≤ i ≤ k−2, in the
    * paper's order h₁ = H₀₀, h₂ = H₁₀, h₃ = H₁₁, h₄ = H₂₀, …
    */
  def freePositions(k: Int): IndexedSeq[(Int, Int)] =
    for { i <- 0 until (k - 1); j <- 0 to i } yield (i, j)

  /** Reconstruct the full k×k matrix from the k* free parameters (Eq. 6). */
  def fromFree(h: Array[Double], k: Int): Dense = {
    require(h.length == numFree(k), s"expected ${numFree(k)} free params, got ${h.length}")
    val out = Dense.zeros(k, k).data
    val pos = freePositions(k)
    var p = 0
    while (p < pos.length) {
      val (i, j) = pos(p)
      out(i * k + j) = h(p)
      out(j * k + i) = h(p)
      p += 1
    }
    // Last column / last row from row-stochasticity; corner from Eq. (6).
    var blockSum = 0.0
    var i = 0
    while (i < k - 1) {
      var rowSum = 0.0
      var j = 0
      while (j < k - 1) { rowSum += out(i * k + j); blockSum += out(i * k + j); j += 1 }
      out(i * k + (k - 1)) = 1.0 - rowSum
      out((k - 1) * k + i) = 1.0 - rowSum
      i += 1
    }
    out((k - 1) * k + (k - 1)) = 2.0 - k + blockSum
    new Dense(k, k, out)
  }

  /** Extract the free parameters of a symmetric doubly-stochastic matrix. */
  def toFree(m: Dense): Array[Double] = {
    require(m.isSquare, "H must be square")
    freePositions(m.rows).map { case (i, j) => m(i, j) }.toArray
  }

  /** Contract an unconstrained gradient G = ∂E/∂H with the structure
    * matrices S^{ij} of Prop. 4.7, yielding the gradient with respect to
    * the free parameters. With K = k−1 (0-based last class):
    *
    *   i ≠ j: G_ij + G_ji − G_iK − G_Kj − G_jK − G_Ki + 2·G_KK
    *   i = j: G_ii − G_iK − G_Ki + G_KK
    */
  def contractGradient(g: Dense): Array[Double] = {
    val k = g.rows
    val kk = k - 1
    freePositions(k).map { case (i, j) =>
      if (i == j) g(i, i) - g(i, kk) - g(kk, i) + g(kk, kk)
      else g(i, j) + g(j, i) - g(i, kk) - g(kk, j) - g(j, kk) - g(kk, i) + 2.0 * g(kk, kk)
    }.toArray
  }

  /** Residual ("centered") matrix H̃ = H − 1/k (Section 3.1). */
  def centered(h: Dense): Dense = h.addScalar(-1.0 / h.rows)

  /** Uniform matrix with every entry 1/k — the optimizer's default start. */
  def uniform(k: Int): Dense = Dense.fill(k, k)(1.0 / k)

  /** The paper's skew-parameterized planted matrix (§5).
    *
    * For k = 3: H = [[1,h,1],[h,1,1],[1,1,h]] / (2+h). The generalization
    * used for the k-sweeps pairs classes (0↔1, 2↔3, …; an odd last class
    * pairs with itself), places h on the paired positions and 1 elsewhere,
    * and normalizes each row by (k−1+h) — symmetric and doubly stochastic
    * for any k and h > 0.
    */
  def planted(k: Int, h: Double): Dense = {
    require(k >= 2 && h > 0, s"need k>=2 and h>0, got k=$k h=$h")
    val partner = Array.tabulate(k) { i =>
      if (i == k - 1 && k % 2 == 1) i // odd k: last class is self-paired
      else if (i % 2 == 0) i + 1
      else i - 1
    }
    val data = new Array[Double](k * k)
    var i = 0
    while (i < k) {
      var j = 0
      while (j < k) {
        data(i * k + j) = (if (partner(i) == j) h else 1.0) / (k - 1 + h)
        j += 1
      }
      i += 1
    }
    new Dense(k, k, data)
  }

  /** True iff symmetric with unit row sums, within tol. */
  def isValid(m: Dense, tol: Double = 1e-9): Boolean =
    m.isSquare &&
      m.rowSums.forall(s => math.abs(s - 1.0) <= tol) &&
      (m - m.t).maxAbs <= tol

  /** Nearest symmetric doubly-stochastic matrix by 500 Sinkhorn rounds on a
    * positive matrix, used to turn hand-specified patterns (e.g. the
    * Hep-Th band surrogate) into valid planted matrices.
    */
  def sinkhorn(m: Dense): Dense = {
    require(m.isSquare && m.data.forall(_ >= 0), "sinkhorn needs a nonnegative square matrix")
    var cur = m.map(x => math.max(x, 1e-12))
    var it = 0
    while (it < 500) {
      cur = cur.rowNormalized
      cur = cur.t.rowNormalized.t
      it += 1
    }
    // Symmetrize the (already near-symmetric) fixed point.
    cur.zip(cur.t)((a, b) => (a + b) / 2).rowNormalized
  }
}
