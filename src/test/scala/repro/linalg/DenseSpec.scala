package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.testutil.DenseRef

class DenseSpec extends AnyFunSuite {

  private val a = Dense.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
  private val b = Dense.fromRows(Seq(Seq(5.0, 6.0), Seq(7.0, 8.0)))

  test("multiply matches hand-computed product") {
    assert((a * b).approxEquals(Dense.fromRows(Seq(Seq(19.0, 22.0), Seq(43.0, 50.0)))))
  }

  test("multiply rejects mismatched shapes") {
    intercept[IllegalArgumentException](a * Dense.zeros(3, 2))
  }

  test("multiply by identity is a no-op") {
    assert((a * Dense.eye(2)).approxEquals(a))
    assert((Dense.eye(2) * a).approxEquals(a))
  }

  test("multiply non-square shapes") {
    val m = Dense.fromRows(Seq(Seq(1.0, 0.0, 2.0)))
    val v = Dense.fromRows(Seq(Seq(1.0), Seq(1.0), Seq(1.0)))
    assert((m * v).approxEquals(Dense.fromRows(Seq(Seq(3.0)))))
  }

  test("add and subtract are elementwise") {
    assert((a + b).approxEquals(Dense.fromRows(Seq(Seq(6.0, 8.0), Seq(10.0, 12.0)))))
    assert((b - a).approxEquals(Dense.fill(2, 2)(4.0)))
  }

  test("scale and addScalar") {
    assert(a.scale(2.0).approxEquals(Dense.fromRows(Seq(Seq(2.0, 4.0), Seq(6.0, 8.0)))))
    assert(a.addScalar(1.0).approxEquals(Dense.fromRows(Seq(Seq(2.0, 3.0), Seq(4.0, 5.0)))))
  }

  test("transpose") {
    assert(a.t.approxEquals(Dense.fromRows(Seq(Seq(1.0, 3.0), Seq(2.0, 4.0)))))
    assert(a.t.t.approxEquals(a))
  }

  test("transpose of non-square") {
    val m = Dense.fromRows(Seq(Seq(1.0, 2.0, 3.0)))
    assert(m.t.rows == 3 && m.t.cols == 1 && m.t(1, 0) == 2.0)
  }

  test("pow: zero gives identity, one gives self, agrees with repeated multiply") {
    assert(a.pow(0).approxEquals(Dense.eye(2)))
    assert(a.pow(1).approxEquals(a))
    assert(a.pow(3).approxEquals(a * a * a))
  }

  test("trace and sum") {
    assert(a.trace == 5.0)
    assert(a.sum == 10.0)
  }

  test("rowSums and colSums") {
    assert(a.rowSums.toSeq == Seq(3.0, 7.0))
    assert(a.colSums.toSeq == Seq(4.0, 6.0))
  }

  test("rowNormalized makes rows stochastic and uniformizes zero rows") {
    val m = Dense.fromRows(Seq(Seq(2.0, 2.0), Seq(0.0, 0.0)))
    val r = m.rowNormalized
    assert(r.approxEquals(Dense.fromRows(Seq(Seq(0.5, 0.5), Seq(0.5, 0.5)))))
  }

  test("frobNorm and frobDist") {
    assert(math.abs(Dense.fill(2, 2)(1.0).frobNorm - 2.0) < 1e-12)
    assert(math.abs(a.frobDist(a)) < 1e-12)
    assert(math.abs(a.frobDist(a.addScalar(1.0)) - 2.0) < 1e-12)
  }

  test("dot is tr(AᵀB)") {
    assert(math.abs(a.dot(b) - (a.t * b).trace) < 1e-12)
  }

  test("maxAbs") {
    assert(Dense.fromRows(Seq(Seq(-5.0, 2.0), Seq(1.0, 3.0))).maxAbs == 5.0)
  }

  test("spectralRadius of diagonal matrix is max |entry|") {
    assert(math.abs(Dense.diag(Array(3.0, -7.0, 1.0)).spectralRadius() - 7.0) < 1e-6)
  }

  test("spectralRadius of symmetric 2x2 matches closed form") {
    // [[2,1],[1,2]] has eigenvalues 3 and 1.
    val m = Dense.fromRows(Seq(Seq(2.0, 1.0), Seq(1.0, 2.0)))
    assert(math.abs(m.spectralRadius() - 3.0) < 1e-6)
  }

  test("spectralRadius of the zero matrix is 0") {
    assert(Dense.zeros(3, 3).spectralRadius() == 0.0)
  }

  test("spectralRadius of a doubly-stochastic matrix is 1") {
    val m = Dense.fromRows(Seq(Seq(0.2, 0.6, 0.2), Seq(0.6, 0.2, 0.2), Seq(0.2, 0.2, 0.6)))
    assert(math.abs(m.spectralRadius() - 1.0) < 1e-6)
  }

  test("diag and singleEntry") {
    val d = Dense.diag(Array(1.0, 2.0))
    assert(d(0, 0) == 1.0 && d(1, 1) == 2.0 && d(0, 1) == 0.0)
    val j = DenseRef.singleEntry(3, 1, 2)
    assert(j(1, 2) == 1.0 && j.sum == 1.0)
  }

  test("fromRows rejects ragged input") {
    intercept[IllegalArgumentException](Dense.fromRows(Seq(Seq(1.0), Seq(1.0, 2.0))))
  }

  test("random is deterministic in the seed") {
    assert(DenseRef.random(3, 3, 42).approxEquals(DenseRef.random(3, 3, 42)))
    assert(!DenseRef.random(3, 3, 42).approxEquals(DenseRef.random(3, 3, 43)))
  }

  test("associativity of multiplication (seeded random)") {
    for (seed <- 1 to 10) {
      val x = DenseRef.random(4, 4, seed)
      val y = DenseRef.random(4, 4, seed + 100)
      val z = DenseRef.random(4, 4, seed + 200)
      assert(((x * y) * z).approxEquals(x * (y * z), 1e-9))
    }
  }

  test("transpose reverses multiplication order (seeded random)") {
    for (seed <- 1 to 10) {
      val x = DenseRef.random(3, 5, seed)
      val y = DenseRef.random(5, 2, seed + 7)
      assert((x * y).t.approxEquals(y.t * x.t, 1e-9))
    }
  }
}
