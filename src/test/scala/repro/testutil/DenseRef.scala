package repro.testutil

import repro.linalg.Dense

/** Driver-side dense reference implementations of everything the
  * distributed layer computes, for differential testing on small graphs.
  */
object DenseRef {

  /** Dense symmetric adjacency from an undirected edge list. */
  def adjacency(n: Int, undirected: Seq[(Int, Int)]): Dense = {
    val d = Dense.zeros(n, n).data
    undirected.foreach { case (a, b) =>
      require(a != b, s"self loop $a"); d(a * n + b) = 1.0; d(b * n + a) = 1.0
    }
    new Dense(n, n, d)
  }

  /** Diagonal degree matrix D of an adjacency matrix. */
  def degreeMatrix(w: Dense): Dense = Dense.diag(w.rowSums)

  /** One-hot n×k label matrix from (node → class), unlabeled rows zero. */
  def oneHot(n: Int, k: Int, labels: Map[Int, Int]): Dense = {
    val d = Dense.zeros(n, k).data
    labels.foreach { case (node, cls) => d(node * k + cls) = 1.0 }
    new Dense(n, k, d)
  }

  /** Centered label matrix X̃ (labeled rows e_c − 1/k, unlabeled zero). */
  def centeredOneHot(n: Int, k: Int, labels: Map[Int, Int]): Dense = {
    val d = Dense.zeros(n, k).data
    labels.foreach { case (node, cls) =>
      (0 until k).foreach(j => d(node * k + j) = (if (j == cls) 1.0 else 0.0) - 1.0 / k)
    }
    new Dense(n, k, d)
  }

  /** Non-backtracking path-count matrix W_NB⁽ℓ⁾ via the Prop. 4.3
    * recurrence on dense matrices.
    */
  def nbPower(w: Dense, l: Int): Dense = {
    require(l >= 1)
    val d = degreeMatrix(w)
    if (l == 1) w
    else if (l == 2) w * w - d
    else {
      var prev2 = w
      var prev1 = w * w - d
      val dMinusI = d - Dense.eye(w.rows)
      for (_ <- 3 to l) {
        val cur = w * prev1 - dMinusI * prev2
        prev2 = prev1; prev1 = cur
      }
      prev1
    }
  }

  /** Brute-force W_NB⁽ℓ⁾ by enumerating all non-backtracking walks —
    * exponential, for tiny graphs only; validates the recurrence itself.
    */
  def nbPowerBrute(w: Dense, l: Int): Dense = {
    val n = w.rows
    val out = Dense.zeros(n, n).data
    def walk(prev: Int, cur: Int, remaining: Int, start: Int): Unit = {
      if (remaining == 0) out(start * n + cur) += 1.0
      else {
        var nxt = 0
        while (nxt < n) {
          if (w(cur, nxt) != 0.0 && nxt != prev) walk(cur, nxt, remaining - 1, start)
          nxt += 1
        }
      }
    }
    (0 until n).foreach(s => walk(-1, s, l, s))
    new Dense(n, n, out)
  }

  /** Dense LinBP: iterate F ← X + W·F·Heff for a fixed iteration count. */
  def linbp(w: Dense, x: Dense, hEff: Dense, iterations: Int): Dense = {
    var f = x
    for (_ <- 1 to iterations) f = x + w * f * hEff
    f
  }

  /** argmax class per row (ties toward the smaller class id). */
  def argmaxRows(f: Dense): Array[Int] =
    Array.tabulate(f.rows) { i =>
      var best = 0
      var bv = f(i, 0)
      var j = 1
      while (j < f.cols) { if (f(i, j) > bv) { bv = f(i, j); best = j }; j += 1 }
      best
    }

  /** M⁽ℓ⁾ = Xᵀ·P·X for any n×n path matrix P. */
  def collapse(x: Dense, p: Dense): Dense = x.t * p * x

  /** Deterministic random connected-ish undirected edge list. */
  def randomEdges(n: Int, m: Int, seed: Long): Seq[(Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    // A spine first, so most nodes have degree >= 1.
    (1 until n).foreach(i => set += ((i - 1, i)))
    var guard = 0
    while (set.size < m && guard < 50 * m) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) set += ((math.min(a, b), math.max(a, b)))
      guard += 1
    }
    set.toSeq
  }

  /** Single-entry matrix J^{ij}. */
  def singleEntry(n: Int, i: Int, j: Int): Dense = {
    val d = new Array[Double](n * n)
    d(i * n + j) = 1.0
    new Dense(n, n, d)
  }

  /** Deterministic random matrix with entries in [0, 1). */
  def random(rows: Int, cols: Int, seed: Long): Dense = {
    val rnd = new scala.util.Random(seed)
    new Dense(rows, cols, Array.fill(rows * cols)(rnd.nextDouble()))
  }
}
