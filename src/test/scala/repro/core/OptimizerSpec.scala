package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BFGSSpec extends AnyFunSuite {

  test("minimizes a separable quadratic to its center") {
    def fg(x: Array[Double]) = {
      val c = Array(1.0, -2.0, 3.0)
      val v = x.zip(c).map { case (xi, ci) => (xi - ci) * (xi - ci) }.sum
      (v, x.zip(c).map { case (xi, ci) => 2 * (xi - ci) })
    }
    val r = BFGS.minimize(fg, Array(0.0, 0.0, 0.0))
    assert(r.converged)
    assert(r.x.zip(Array(1.0, -2.0, 3.0)).forall { case (a, b) => math.abs(a - b) < 1e-6 })
    assert(r.value < 1e-10)
  }

  test("handles moderately ill-conditioned quadratics") {
    def fg(x: Array[Double]) =
      (100 * x(0) * x(0) + x(1) * x(1), Array(200 * x(0), 2 * x(1)))
    val r = BFGS.minimize(fg, Array(1.0, 1.0), maxIters = 5000, gradTol = 1e-8)
    assert(math.abs(r.x(0)) < 1e-4 && math.abs(r.x(1)) < 1e-3)
  }

  test("fg is called once per trial point: 1 + iterations + backtracks times on a quadratic") {
    var calls = 0
    def fg(x: Array[Double]) = {
      calls += 1
      (100 * x(0) * x(0) + x(1) * x(1), Array(200 * x(0), 2 * x(1)))
    }
    val r = BFGS.minimize(fg, Array(1.0, 1.0), maxIters = 5000, gradTol = 1e-8)
    assert(r.converged && r.backtracks > 0, r.toString)
    assert(calls == 1 + r.iters + r.backtracks, s"$calls calls, ${r.iters} iterations, ${r.backtracks} backtracks")
  }

  test("descends on the Rosenbrock function") {
    def fg(x: Array[Double]) = {
      val (a, b) = (x(0), x(1))
      val f = (1 - a) * (1 - a) + 100 * (b - a * a) * (b - a * a)
      val g = Array(-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a))
      (f, g)
    }
    val r = BFGS.minimize(fg, Array(-1.0, 1.0), maxIters = 20000)
    assert(r.value < 1e-3, s"value=${r.value}")
  }

  test("stops immediately at a stationary point") {
    def fg(x: Array[Double]) = (x(0) * x(0), Array(2 * x(0)))
    val r = BFGS.minimize(fg, Array(0.0))
    assert(r.converged && r.iters == 0)
  }

  test("respects the iteration cap") {
    def fg(x: Array[Double]) = (x(0), Array(1.0)) // unbounded below
    val r = BFGS.minimize(fg, Array(0.0), maxIters = 7)
    assert(r.iters == 7 && !r.converged)
  }

  test("a failed line search is not reported as converged") {
    // |x| at its kink, with the one-sided gradient 1: every step along −1
    // increases f, so no step passes Armijo.
    def fg(x: Array[Double]) = (math.abs(x(0)), Array(1.0))
    val r = BFGS.minimize(fg, Array(0.0))
    assert(!r.converged && r.iters == 0 && r.gradNorm == 1.0)
  }

  test("a gradient that rounding keeps above gradTol stops at the precision floor, far below the cap") {
    // f = 1 + 10¹²·(x² − 2)²: no double is √2, so |f'| ≥ 2.5e-3 at every
    // double, while near √2 the second term drops below half an ulp of 1 and
    // f rounds to 1. Without the floor every later step is a line search for
    // a change of f that rounding hides, up to the cap.
    def fg(x: Array[Double]) = { val r = x(0) * x(0) - 2; (1 + 1e12 * r * r, Array(4e12 * x(0) * r)) }
    val r = BFGS.minimize(fg, Array(1.5))
    assert(r.stop == BFGS.Stop.PrecisionFloor && !r.converged && r.gradNorm > 1e-9, r.toString)
    assert(r.iters < 50 && math.abs(r.x(0) - math.sqrt(2)) < 1e-6, r.toString)
  }

  test("the stop reason names the gradient, the cap and a failed line search") {
    val quadratic = BFGS.minimize(x => (x(0) * x(0), Array(2 * x(0))), Array(3.0))
    val unbounded = BFGS.minimize(x => (x(0), Array(1.0)), Array(0.0), maxIters = 7)
    val kink = BFGS.minimize(x => (math.abs(x(0)), Array(1.0)), Array(0.0))
    assert(Seq(quadratic, unbounded, kink).map(_.stop) ==
      Seq(BFGS.Stop.Gradient, BFGS.Stop.IterationCap, BFGS.Stop.LineSearchFailed))
  }

  test("monotone: final value never exceeds the initial value") {
    for (seed <- 1 to 10) {
      val rnd = new scala.util.Random(seed)
      val q = Array.fill(4)(rnd.nextDouble() * 5 + 0.1)
      val c = Array.fill(4)(rnd.nextDouble() * 4 - 2)
      def fg(x: Array[Double]) = (
        x.indices.map(i => q(i) * (x(i) - c(i)) * (x(i) - c(i))).sum,
        x.indices.map(i => 2 * q(i) * (x(i) - c(i))).toArray)
      val x0 = Array.fill(4)(rnd.nextDouble() * 10 - 5)
      val r = BFGS.minimize(fg, x0, maxIters = 200)
      assert(r.value <= fg(x0)._1 + 1e-12)
    }
  }
}

class NelderMeadSpec extends AnyFunSuite {

  test("minimizes a quadratic bowl") {
    def f(x: Array[Double]) = (x(0) - 2) * (x(0) - 2) + (x(1) + 1) * (x(1) + 1)
    val r = NelderMead.minimizeBatch(_.map(f), Array(0.0, 0.0), initialStep = 0.5, maxEvals = 500)
    assert(math.abs(r.x(0) - 2) < 1e-2 && math.abs(r.x(1) + 1) < 1e-2)
  }

  test("works on a piecewise-constant (accuracy-like) objective") {
    // Steps of a staircase: NM still walks downhill across the plateaus.
    def f(x: Array[Double]) = math.floor(math.abs(x(0) - 3) * 4) / 4.0
    val r = NelderMead.minimizeBatch(_.map(f), Array(0.0), initialStep = 1.0, maxEvals = 200)
    assert(f(r.x) <= 0.5, s"got ${f(r.x)} at ${r.x.toSeq}")
  }

  test("never returns a worse point than the start") {
    for (seed <- 1 to 10) {
      val rnd = new scala.util.Random(seed)
      def f(x: Array[Double]) =
        math.abs(x(0) - 1) + math.sin(3 * x(1)) * 0.5 + x(1) * x(1) * 0.1
      val x0 = Array(rnd.nextDouble() * 4 - 2, rnd.nextDouble() * 4 - 2)
      val r = NelderMead.minimizeBatch(_.map(f), x0, maxEvals = 120)
      assert(r.value <= f(x0) + 1e-12)
    }
  }

  test("respects the eval budget") {
    var calls = 0
    def f(x: Array[Double]) = { calls += 1; x.map(v => v * v).sum }
    NelderMead.minimizeBatch(_.map(f), Array(5.0, 5.0, 5.0), maxEvals = 25)
    // The budget bounds evals up to finishing the current simplex operation.
    assert(calls <= 25 + 4)
  }

  test("reports the number of evaluations") {
    var calls = 0
    def f(x: Array[Double]) = { calls += 1; x(0) * x(0) }
    val r = NelderMead.minimizeBatch(_.map(f), Array(3.0), maxEvals = 60)
    assert(r.evals == calls)
  }

  test("the initial simplex arrives as one batch of d+1 points, a shrink as one of d") {
    // Plateaus make contraction no better than the worst vertex, so the
    // simplex shrinks.
    def f(x: Array[Double]) = math.floor(math.abs(x(0) - 3) * 2) + math.floor(math.abs(x(1) + 1) * 2)
    val sizes = scala.collection.mutable.ArrayBuffer.empty[Int]
    val r = NelderMead.minimizeBatch(xs => { sizes += xs.length; xs.map(f) }, Array(0.0, 0.0),
      initialStep = 0.5, maxEvals = 200)
    assert(sizes.head == 3)
    assert(sizes.tail.forall(s => s == 1 || s == 2))
    assert(sizes.tail.contains(2), s"no shrink in $sizes")
    assert(r.evals == sizes.sum)
  }
}
