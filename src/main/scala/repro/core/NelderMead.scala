package repro.core

/** Nelder–Mead downhill simplex, for the gradient-free Holdout baseline.
  *
  * The Holdout energy −Σᵢ Acc_{Qᵢ}(H) is piecewise constant (accuracy over
  * a finite holdout set), so the paper uses Nelder–Mead for it; we do the
  * same. Standard coefficients: reflect 1, expand 2, contract 0.5,
  * shrink 0.5. The eval budget is the knob that matters — every
  * evaluation runs label propagation over the whole graph, which is
  * exactly why Holdout is orders of magnitude slower than DCE. Holdout
  * evaluates each batch of independent points ([[minimizeBatch]]) with one
  * batched propagation; each point still counts toward the budget.
  */
object NelderMead {

  final case class Result(x: Array[Double], value: Double, evals: Int)

  /** The run stops once the simplex's best and worst values are this close. */
  private val Tol = 1e-6

  /** Minimize an objective that evaluates a batch of points per call.
    *
    * Points that do not depend on each other's values go in one batch: the
    * initial simplex (d+1 points) and each shrink (d points). Reflection,
    * expansion and contraction are batches of one. Every point of a batch
    * counts as one evaluation toward ``maxEvals``, which is checked between
    * simplex operations, so an operation once started is finished.
    *
    * @param fs objective over a batch of points, one value per point, in order
    */
  def minimizeBatch(
      fs: Seq[Array[Double]] => Seq[Double],
      x0: Array[Double],
      initialStep: Double = 0.1,
      maxEvals: Int = 200): Result = {
    val d = x0.length
    var evals = 0
    def evalAll(xs: Seq[Array[Double]]): Seq[(Array[Double], Double)] = {
      val vs = fs(xs)
      require(vs.length == xs.length, s"objective returned ${vs.length} values for ${xs.length} points")
      evals += xs.length
      xs.zip(vs)
    }
    def eval(x: Array[Double]): Double = evalAll(Seq(x)).head._2

    // Initial simplex: x0 plus a perturbation along each axis.
    var simplex: Array[(Array[Double], Double)] =
      evalAll(x0 +: Seq.tabulate(d) { i =>
        val p = x0.clone(); p(i) += initialStep; p
      }).toArray

    def sorted(): Unit = simplex = simplex.sortBy(_._2)

    sorted()
    while (evals < maxEvals && math.abs(simplex.last._2 - simplex.head._2) > Tol) {
      val best = simplex.head
      val worst = simplex.last
      val centroid = Array.tabulate(d)(i => simplex.dropRight(1).map(_._1(i)).sum / d)
      def point(coef: Double): Array[Double] =
        Array.tabulate(d)(i => centroid(i) + coef * (centroid(i) - worst._1(i)))

      val refl = point(1.0)
      val fRefl = eval(refl)
      if (fRefl < best._2) {
        val exp = point(2.0)
        val fExp = eval(exp)
        simplex(simplex.length - 1) = if (fExp < fRefl) (exp, fExp) else (refl, fRefl)
      } else if (fRefl < simplex(simplex.length - 2)._2) {
        simplex(simplex.length - 1) = (refl, fRefl)
      } else {
        val cont = point(-0.5)
        val fCont = eval(cont)
        if (fCont < worst._2) {
          simplex(simplex.length - 1) = (cont, fCont)
        } else {
          // Shrink toward the best vertex.
          simplex = best +: evalAll(simplex.toSeq.tail.map { case (p, _) =>
            Array.tabulate(d)(i => best._1(i) + 0.5 * (p(i) - best._1(i)))
          }).toArray
        }
      }
      sorted()
    }
    Result(simplex.head._1, simplex.head._2, evals)
  }
}
