package repro.core

/** Smooth unconstrained minimization with the explicit gradient.
  *
  * Fills the role SciPy's SLSQP plays in the paper: the equality
  * constraints (symmetry + double stochasticity) are already eliminated by
  * the free-parameter encoding of Eq. (6), so an unconstrained
  * quasi-Newton method with the gradient of Prop. 4.7 suffices. BFGS
  * matters here, not just speed: near the uniform start 1/k the DCE
  * objective is extremely flat (a doubly-stochastic perturbation dH has
  * zero row/col sums, so every ∂‖H^ℓ−Z‖²/∂h with ℓ ≥ 2 vanishes at
  * uniform) and first-order descent stalls; curvature information walks
  * out of the valley. Problems are tiny — k* = k(k−1)/2 ≤ ~66 parameters
  * — so dense inverse-Hessian updates are free.
  */
object BFGS {

  /** Why a run stopped. */
  sealed trait Stop
  object Stop {
    /** The gradient norm fell to the tolerance. */
    case object Gradient extends Stop
    /** An accepted step lowered f by no more than [[Floor]]·|f|:
      * f has no more digits to lose, and further steps are rounding noise.
      */
    case object PrecisionFloor extends Stop
    /** The iteration cap was reached. */
    case object IterationCap extends Stop
    /** No step of the line search passed the Armijo test. */
    case object LineSearchFailed extends Stop
  }

  /** Two units in the last place of 1.0: a step that lowers f by no more
    * than this fraction of |f| changed f only by rounding.
    */
  val Floor: Double = 2 * Math.ulp(1.0)

  /** @param x          final parameters
    * @param value      final objective value
    * @param gradNorm   final gradient L2 norm
    * @param iters      iterations used
    * @param converged  true if gradNorm fell below the tolerance
    * @param backtracks Armijo step halvings, over all iterations
    * @param stop       why the run stopped
    */
  final case class Result(
      x: Array[Double],
      value: Double,
      gradNorm: Double,
      iters: Int,
      converged: Boolean,
      backtracks: Int,
      stop: Stop)

  /** Sufficient-decrease constant of the Armijo test. */
  private val ArmijoC = 1e-4

  /** Step halvings the line search tries before it gives up. */
  private val MaxBacktracks = 60

  /** Minimize f by BFGS with Armijo backtracking. ``fg`` is called once at
    * ``x0`` and once per trial point of the line search; the accepted
    * point's value and gradient are kept, so a run costs
    * 1 + iters + backtracks calls.
    *
    * A run stops at the first of: the gradient norm at most ``gradTol``; an
    * accepted step that lowered f by at most [[Floor]]·|f| (a
    * gradient that rounding keeps above ``gradTol`` would otherwise run to
    * the cap, each step a long line search for a rounding-level change);
    * ``maxIters`` iterations; or a line search with no acceptable step.
    * `converged` is true only in the first case.
    */
  def minimize(
      fg: Array[Double] => (Double, Array[Double]),
      x0: Array[Double],
      maxIters: Int = 500,
      gradTol: Double = 1e-9): Result = {
    val d = x0.length
    var x = x0.clone()
    var (fx, gx) = fg(x)
    // Inverse Hessian approximation, row-major d×d, starts at I.
    var hInv = Array.tabulate(d * d)(i => if (i % d == i / d) 1.0 else 0.0)

    def norm(v: Array[Double]): Double = math.sqrt(v.foldLeft(0.0)((a, b) => a + b * b))
    def matVec(m: Array[Double], v: Array[Double]): Array[Double] = {
      val out = new Array[Double](d)
      var i = 0
      while (i < d) {
        var s = 0.0; var j = 0
        while (j < d) { s += m(i * d + j) * v(j); j += 1 }
        out(i) = s; i += 1
      }
      out
    }

    var it = 0
    var backtracks = 0
    var atFloor = false
    def result(stop: Stop) = Result(x, fx, norm(gx), it, converged = stop == Stop.Gradient, backtracks, stop)
    while (it < maxIters && !atFloor) {
      val gNorm = norm(gx)
      if (gNorm <= gradTol) return result(Stop.Gradient)

      var dir = matVec(hInv, gx).map(-_)
      var slope = dir.zip(gx).map { case (a, b) => a * b }.sum
      if (slope >= 0) { // H⁻¹ lost positive definiteness: reset to steepest descent
        hInv = Array.tabulate(d * d)(i => if (i % d == i / d) 1.0 else 0.0)
        dir = gx.map(-_)
        slope = -gNorm * gNorm
      }

      // Armijo backtracking from the natural quasi-Newton step t = 1.
      var t = 1.0
      var bt = 0
      var accepted: (Array[Double], Double, Array[Double]) = null
      while (accepted == null && bt < MaxBacktracks) {
        val cand = Array.tabulate(d)(i => x(i) + t * dir(i))
        val (fc, gc) = fg(cand)
        if (fc <= fx + ArmijoC * t * slope) accepted = (cand, fc, gc)
        else { t /= 2.0; bt += 1 }
      }
      backtracks += bt
      // No step decreases f: stop where we are, not converged.
      if (accepted == null) return result(Stop.LineSearchFailed)

      val (xNew, fx2, gx2) = accepted
      atFloor = fx - fx2 <= Floor * math.abs(fx)
      val s = Array.tabulate(d)(i => xNew(i) - x(i))
      val y = Array.tabulate(d)(i => gx2(i) - gx(i))
      val sy = s.zip(y).map { case (a, b) => a * b }.sum
      if (sy > 1e-12) {
        // hInv ← (I − ρ s yᵀ) hInv (I − ρ y sᵀ) + ρ s sᵀ
        val rho = 1.0 / sy
        val hy = matVec(hInv, y)
        val yhy = y.zip(hy).map { case (a, b) => a * b }.sum
        val next = new Array[Double](d * d)
        var i = 0
        while (i < d) {
          var j = 0
          while (j < d) {
            // Expanded update: H − ρ(s·hyᵀ + hy·sᵀ) + ρ²(yᵀHy)s·sᵀ + ρ s·sᵀ
            next(i * d + j) = hInv(i * d + j) -
              rho * (s(i) * hy(j) + hy(i) * s(j)) +
              rho * rho * yhy * s(i) * s(j) +
              rho * s(i) * s(j)
            j += 1
          }
          i += 1
        }
        hInv = next
      }
      x = xNew; fx = fx2; gx = gx2
      it += 1
    }
    result(if (norm(gx) <= gradTol) Stop.Gradient else if (atFloor) Stop.PrecisionFloor else Stop.IterationCap)
  }
}
