package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Dense
import repro.testutil.DenseRef

class CompatibilityMatrixSpec extends AnyFunSuite {
  import CompatibilityMatrix._

  private def randomFree(k: Int, seed: Long): Array[Double] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(numFree(k))(1.0 / k + (rnd.nextDouble() - 0.5) * 0.4 / k)
  }

  test("numFree is k(k-1)/2") {
    assert(numFree(2) == 1 && numFree(3) == 3 && numFree(5) == 10 && numFree(7) == 21)
  }

  test("freePositions order matches the paper: h1=H00, h2=H10, h3=H11, h4=H20") {
    assert(freePositions(4).take(4) == Seq((0, 0), (1, 0), (1, 1), (2, 0)))
    assert(freePositions(4).length == 6)
  }

  test("fromFree for k=3 matches the paper's explicit reconstruction") {
    // h = [H11, H21, H22] (paper 1-based) and the displayed matrix in §4.
    val h11 = 0.2; val h21 = 0.6; val h22 = 0.2
    val m = fromFree(Array(h11, h21, h22), 3)
    val expected = Dense.fromRows(Seq(
      Seq(h11, h21, 1 - h11 - h21),
      Seq(h21, h22, 1 - h21 - h22),
      Seq(1 - h11 - h21, 1 - h21 - h22, h11 + 2 * h21 + h22 - 1)))
    assert(m.approxEquals(expected, 1e-12))
  }

  test("fromFree always produces a symmetric matrix with unit row and column sums") {
    for (k <- 2 to 7; seed <- 1 to 5) {
      val m = fromFree(randomFree(k, seed * 31 + k), k)
      assert(isValid(m, 1e-9), s"k=$k seed=$seed:\n$m")
      assert(m.colSums.forall(s => math.abs(s - 1.0) < 1e-9))
    }
  }

  test("toFree inverts fromFree") {
    for (k <- 2 to 7; seed <- 1 to 5) {
      val h0 = randomFree(k, seed * 17 + k)
      val back = toFree(fromFree(h0, k))
      assert(back.zip(h0).forall { case (x, y) => math.abs(x - y) < 1e-12 })
    }
  }

  test("fromFree rejects a wrong-length parameter vector") {
    intercept[IllegalArgumentException](fromFree(Array(0.1, 0.2), 3))
  }

  test("uniform matrix is valid and has zero residual") {
    for (k <- 2 to 6) {
      assert(isValid(uniform(k)))
      assert(centered(uniform(k)).maxAbs < 1e-12)
    }
  }

  test("planted(3, h) matches the paper's skew matrix [[1,h,1],[h,1,1],[1,1,h]]/(2+h)") {
    val m = planted(3, 8.0)
    val expected = Dense.fromRows(Seq(
      Seq(0.1, 0.8, 0.1), Seq(0.8, 0.1, 0.1), Seq(0.1, 0.1, 0.8)))
    assert(m.approxEquals(expected, 1e-12))
    assert(planted(3, 3.0).approxEquals(
      Dense.fromRows(Seq(Seq(0.2, 0.6, 0.2), Seq(0.6, 0.2, 0.2), Seq(0.2, 0.2, 0.6))), 1e-12))
  }

  test("planted is valid (symmetric doubly stochastic) for a range of k and h") {
    for (k <- 2 to 8; h <- Seq(2.0, 3.0, 8.0)) {
      assert(isValid(planted(k, h), 1e-12), s"k=$k h=$h")
    }
  }

  test("planted skews toward the paired class: max entry is h/(k-1+h)") {
    for (k <- 2 to 6; h <- Seq(3.0, 8.0)) {
      assert(math.abs(planted(k, h).maxAbs - h / (k - 1 + h)) < 1e-12)
    }
  }

  test("centered subtracts exactly 1/k") {
    val m = planted(3, 8.0)
    assert(centered(m).approxEquals(m.addScalar(-1.0 / 3), 1e-12))
  }

  test("contractGradient agrees with finite differences of E(H)=‖H−Z‖²") {
    // Unconstrained gradient of E is 2(H−Z); the structure contraction
    // must equal d/dh of E(fromFree(h)) by central differences.
    for (k <- 2 to 5; seed <- 1 to 3) {
      val z = DenseRef.random(k, k, seed + 1000)
      val h0 = randomFree(k, seed * 7 + k)
      def e(h: Array[Double]): Double = { val d = fromFree(h, k) - z; d.dot(d) }
      val g = contractGradient((fromFree(h0, k) - z).scale(2.0))
      val eps = 1e-6
      for (p <- h0.indices) {
        val hp = h0.clone(); hp(p) += eps
        val hm = h0.clone(); hm(p) -= eps
        val fd = (e(hp) - e(hm)) / (2 * eps)
        assert(math.abs(fd - g(p)) < 1e-5, s"k=$k seed=$seed p=$p fd=$fd grad=${g(p)}")
      }
    }
  }

  test("sinkhorn output is symmetric doubly stochastic") {
    for (seed <- 1 to 5) {
      val raw = DenseRef.random(5, 5, seed).map(x => x + 0.05)
      val s = sinkhorn(raw.zip(raw.t)((a, b) => a + b)) // symmetric input
      assert(isValid(s, 1e-6), s"seed=$seed:\n$s")
    }
  }

  test("sinkhorn preserves a matrix that is already doubly stochastic") {
    val m = planted(4, 3.0)
    assert(sinkhorn(m).approxEquals(m, 1e-6))
  }

  test("spectral radius of a centered planted matrix is below 1") {
    for (k <- 2 to 6; h <- Seq(2.0, 8.0)) {
      val rho = centered(planted(k, h)).spectralRadius()
      assert(rho > 0 && rho < 1.0 + 1e-9, s"k=$k h=$h rho=$rho")
    }
  }
}
