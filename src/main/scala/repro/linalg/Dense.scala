package repro.linalg

/** Minimal immutable dense matrix for driver-side math.
  *
  * Used for the k×k compatibility algebra (powers, gradients, Frobenius
  * distances) and as the n×n *reference implementation* that the
  * distributed DataFrame operators are tested against. Row-major storage.
  *
  * This is deliberately dependency-free: the only driver-side linear
  * algebra the paper's method needs is on k×k matrices (k ≤ ~12), so a
  * simple O(n³) multiply is more than enough.
  */
final class Dense(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, s"bad shape: $rows x $cols vs ${data.length}")

  @inline def apply(i: Int, j: Int): Double = data(i * cols + j)

  def isSquare: Boolean = rows == cols

  /** Matrix product `this · that`. */
  def *(that: Dense): Dense = {
    require(cols == that.rows, s"shape mismatch: ${rows}x$cols * ${that.rows}x${that.cols}")
    val out = new Array[Double](rows * that.cols)
    var i = 0
    while (i < rows) {
      var l = 0
      while (l < cols) {
        val a = data(i * cols + l)
        if (a != 0.0) {
          var j = 0
          while (j < that.cols) {
            out(i * that.cols + j) += a * that.data(l * that.cols + j)
            j += 1
          }
        }
        l += 1
      }
      i += 1
    }
    new Dense(rows, that.cols, out)
  }

  def +(that: Dense): Dense = zip(that)(_ + _)
  def -(that: Dense): Dense = zip(that)(_ - _)

  /** Scalar multiple. */
  def scale(s: Double): Dense = map(_ * s)

  /** Broadcast-add a scalar to every entry (paper's "uncentering"). */
  def addScalar(c: Double): Dense = map(_ + c)

  def map(f: Double => Double): Dense = new Dense(rows, cols, data.map(f))

  def zip(that: Dense)(f: (Double, Double) => Double): Dense = {
    require(rows == that.rows && cols == that.cols, "shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0
    while (i < data.length) { out(i) = f(data(i), that.data(i)); i += 1 }
    new Dense(rows, cols, out)
  }

  /** Transpose. */
  def t: Dense = {
    val out = new Array[Double](data.length)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out(j * rows + i) = apply(i, j); j += 1 }; i += 1 }
    new Dense(cols, rows, out)
  }

  /** `this^p` for a square matrix, p ≥ 0 (p = 0 gives the identity). */
  def pow(p: Int): Dense = {
    require(isSquare && p >= 0, s"pow needs square matrix and p>=0, got $p")
    var acc = Dense.eye(rows)
    var i = 0
    while (i < p) { acc = acc * this; i += 1 }
    acc
  }

  def trace: Double = {
    require(isSquare, "trace needs a square matrix")
    (0 until rows).map(i => apply(i, i)).sum
  }

  def sum: Double = data.sum
  def maxAbs: Double = data.foldLeft(0.0)((a, x) => math.max(a, math.abs(x)))

  def rowSums: Array[Double] = {
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) { var j = 0; var s = 0.0; while (j < cols) { s += apply(i, j); j += 1 }; out(i) = s; i += 1 }
    out
  }

  def colSums: Array[Double] = t.rowSums

  /** Row-normalized copy, `diag(M·1)⁻¹·M` (Eq. 9). Zero rows become uniform 1/cols. */
  def rowNormalized: Dense = {
    val rs = rowSums
    val out = new Array[Double](data.length)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) {
        out(i * cols + j) = if (rs(i) == 0.0) 1.0 / cols else apply(i, j) / rs(i)
        j += 1
      }
      i += 1
    }
    new Dense(rows, cols, out)
  }

  /** Frobenius norm ‖·‖ (the norm used throughout the paper). */
  def frobNorm: Double = math.sqrt(data.foldLeft(0.0)((a, x) => a + x * x))

  /** Frobenius distance ‖this − that‖. */
  def frobDist(that: Dense): Double = (this - that).frobNorm

  /** Elementwise inner product ⟨this, that⟩ = tr(thisᵀ·that). */
  def dot(that: Dense): Double = {
    require(rows == that.rows && cols == that.cols, "shape mismatch")
    var s = 0.0; var i = 0
    while (i < data.length) { s += data(i) * that.data(i); i += 1 }
    s
  }

  /** Spectral radius by power iteration.
    *
    * Exact for symmetric matrices (all our uses: W, H, H̃ are symmetric);
    * for general matrices it returns the dominant-eigenvalue magnitude
    * when one exists.
    */
  def spectralRadius(iters: Int = 300, seed: Long = 7): Double = {
    require(isSquare, "spectralRadius needs a square matrix")
    if (maxAbs == 0.0) return 0.0
    val rnd = new scala.util.Random(seed)
    var v = Array.fill(rows)(rnd.nextDouble() + 0.1)
    var lambda = 0.0
    var it = 0
    while (it < iters) {
      val w = new Array[Double](rows)
      var i = 0
      while (i < rows) {
        var s = 0.0; var j = 0
        while (j < cols) { s += apply(i, j) * v(j); j += 1 }
        w(i) = s; i += 1
      }
      val norm = math.sqrt(w.foldLeft(0.0)((a, x) => a + x * x))
      if (norm == 0.0) return 0.0
      lambda = norm
      v = w.map(_ / norm)
      it += 1
    }
    lambda
  }

  def approxEquals(that: Dense, tol: Double = 1e-9): Boolean =
    rows == that.rows && cols == that.cols && (this - that).maxAbs <= tol

  override def toString: String =
    (0 until rows).map(i => (0 until cols).map(j => f"${apply(i, j)}%9.4f").mkString("[", " ", "]")).mkString("\n")

  override def equals(o: Any): Boolean = o match {
    case d: Dense => rows == d.rows && cols == d.cols && java.util.Arrays.equals(data, d.data)
    case _        => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(data) * 31 + rows
}

object Dense {
  def zeros(rows: Int, cols: Int): Dense = new Dense(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): Dense = {
    val d = zeros(n, n).data
    var i = 0
    while (i < n) { d(i * n + i) = 1.0; i += 1 }
    new Dense(n, n, d)
  }

  def fill(rows: Int, cols: Int)(v: Double): Dense = new Dense(rows, cols, Array.fill(rows * cols)(v))

  /** Build from row seqs, e.g. `Dense.fromRows(Seq(Seq(1,2),Seq(3,4)))`. */
  def fromRows(rows: Seq[Seq[Double]]): Dense = {
    require(rows.nonEmpty && rows.forall(_.length == rows.head.length), "ragged rows")
    new Dense(rows.length, rows.head.length, rows.flatten.toArray)
  }

  /** Diagonal matrix from a vector. */
  def diag(v: Array[Double]): Dense = {
    val n = v.length
    val d = new Array[Double](n * n)
    var i = 0
    while (i < n) { d(i * n + i) = v(i); i += 1 }
    new Dense(n, n, d)
  }
}
