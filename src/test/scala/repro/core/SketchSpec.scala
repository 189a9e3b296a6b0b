package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.linalg.Dense
import repro.testutil.{DenseRef, LocalGraphs, SparkCounters}

class SketchSpec extends SparkSpec {

  private val n = 30
  private val k = 3
  private lazy val edgeList = DenseRef.randomEdges(n, 80, seed = 23)
  private lazy val w = DenseRef.adjacency(n, edgeList)
  private lazy val g = LocalGraphs.graph(spark, n, edgeList)
  // Partial labels: 60% of nodes labeled.
  private lazy val labelMap = (0 until n).filter(_ % 5 != 0).map(i => i -> (i % k)).toMap
  private lazy val labelsDf = LocalGraphs.labels(spark, labelMap)
  private lazy val xDense = DenseRef.oneHot(n, k, labelMap)
  private lazy val sketches = Sketch.compute(g, labelsDf, k, lmax = 5)

  test("nLabeled counts the labeled nodes") {
    assert(sketches.nLabeled == labelMap.size)
  }

  test("seedsPerClass counts the seeds of each class; evidence(ℓ) is the row sums of dense XᵀW_NB⁽ℓ⁾X") {
    assert(sketches.seedsPerClass == (0 until k).map(c => labelMap.values.count(_ == c).toLong))
    for (l <- 1 to 5) {
      val expected = DenseRef.collapse(xDense, DenseRef.nbPower(w, l)).rowSums
      assert(sketches.evidence(l).toSeq == expected.toSeq, s"l=$l")
    }
  }

  test("M⁽ℓ⁾ full-path sketches match dense XᵀWℓX for ℓ = 1..5") {
    for (l <- 1 to 5) {
      val expected = DenseRef.collapse(xDense, w.pow(l))
      assert(sketches.mFull(l - 1).approxEquals(expected, 1e-6), s"l=$l")
    }
  }

  test("M_NB⁽ℓ⁾ sketches match dense XᵀW_NB⁽ℓ⁾X for ℓ = 1..5") {
    for (l <- 1 to 5) {
      val expected = DenseRef.collapse(xDense, DenseRef.nbPower(w, l))
      assert(sketches.mNB(l - 1).approxEquals(expected, 1e-6), s"l=$l")
    }
  }

  test("M_NB⁽¹⁻⁵⁾ and M⁽¹⁻²⁾ equal the dense reference exactly") {
    for (l <- 1 to 5)
      assert(sketches.mNB(l - 1).approxEquals(DenseRef.collapse(xDense, DenseRef.nbPower(w, l)), 0), s"NB l=$l")
    for (l <- 1 to 2)
      assert(sketches.mFull(l - 1).approxEquals(DenseRef.collapse(xDense, w.pow(l)), 0), s"full l=$l")
  }

  test("a seed without edges counts in nLabeled and adds nothing to any M⁽ℓ⁾") {
    val cycle = Seq((0, 1), (1, 2), (2, 3), (3, 0), (1, 3))
    val small = LocalGraphs.graph(spark, 6, cycle)
    val withEdges = Map(0 -> 0, 1 -> 2, 2 -> 1, 3 -> 0)
    val all = Sketch.compute(small, LocalGraphs.labels(spark, withEdges + (5 -> 1)), k, lmax = 4)
    val connected = Sketch.compute(small, LocalGraphs.labels(spark, withEdges), k, lmax = 4)
    assert(all.nLabeled == 5 && connected.nLabeled == 4)
    for (l <- 1 to 4) {
      assert(all.mNB(l - 1).approxEquals(connected.mNB(l - 1), 0), s"NB l=$l")
      assert(all.mFull(l - 1).approxEquals(connected.mFull(l - 1), 0), s"full l=$l")
    }
  }

  test("compute rejects a seed class id outside [0,k)") {
    val bad = LocalGraphs.labels(spark, labelMap + (3 -> k))
    val e = intercept[Exception](Sketch.compute(g, bad, k, lmax = 2))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains(s"class id outside [0,$k)")), e.toString)
  }

  test("compute rejects seeds that miss a class, naming it") {
    val twoClasses = LocalGraphs.labels(spark, labelMap.filter(_._2 != 2))
    val e = intercept[IllegalArgumentException](Sketch.compute(g, twoClasses, k, lmax = 2))
    assert(e.getMessage.contains("class 2"), e.getMessage)
  }

  test("M⁽¹⁾ and M_NB⁽¹⁾ coincide (W_NB⁽¹⁾ = W)") {
    assert(sketches.mFull(0).approxEquals(sketches.mNB(0), 1e-9))
  }

  test("M⁽¹⁾ matches the DuckDB oracle over labeled-labeled edges") {
    import spark.implicits._
    val m1 = sketches.mFull(0)
    val asDf = (for { c <- 0 until k; d <- 0 until k if m1(c, d) != 0.0 }
      yield (c, d, m1(c, d))).toDF("c", "d", "v")
    Oracle.assertEquivalent(
      asDf,
      """SELECT xs.cls AS c, xd.cls AS d, CAST(COUNT(*) AS DOUBLE) AS v
         FROM edges e
         JOIN labels xs ON e.src = xs.node
         JOIN labels xd ON e.dst = xd.node
         GROUP BY xs.cls, xd.cls""",
      "edges" -> g.edges, "labels" -> labelsDf)
  }

  test("M matrices are symmetric (symmetric W)") {
    for (l <- 1 to 5) {
      assert((sketches.mFull(l - 1) - sketches.mFull(l - 1).t).maxAbs < 1e-6, s"full l=$l")
      assert((sketches.mNB(l - 1) - sketches.mNB(l - 1).t).maxAbs < 1e-6, s"nb l=$l")
    }
  }

  test("normalization variant 1 is row-stochastic") {
    for (l <- 1 to 5) {
      assert(sketches.pNB(l, 1).rowSums.forall(s => math.abs(s - 1.0) < 1e-9), s"l=$l")
    }
  }

  test("normalization variant 2 is symmetric for symmetric M") {
    val p = sketches.pNB(2, 2)
    assert((p - p.t).maxAbs < 1e-9)
  }

  test("normalization variant 3 has mean entry 1/k") {
    val p = sketches.pNB(3, 3)
    assert(math.abs(p.sum / (k * k) - 1.0 / k) < 1e-9)
  }

  test("normalize rejects unknown variants") {
    intercept[IllegalArgumentException](Sketch.normalize(Dense.eye(2), 4))
  }

  test("variants agree on a constant-row-sum matrix up to row scale") {
    // On a fully labeled balanced graph M has near-constant row sums; here
    // just check the algebra on a synthetic constant-row-sum matrix.
    val m = Dense.fromRows(Seq(Seq(6.0, 4.0), Seq(4.0, 6.0)))
    val v1 = Sketch.normalize(m, 1)
    val v3 = Sketch.normalize(m, 3)
    assert(v1.approxEquals(v3, 1e-9))
  }

  test("lmax=1 sketches avoid the NB recursion entirely") {
    val sk1 = Sketch.compute(g, labelsDf, k, lmax = 1)
    assert(sk1.lmax == 1)
    assert(sk1.mFull(0).approxEquals(sketches.mFull(0), 1e-9))
  }

  test("Sketch.compute with ℓmax 5 starts 6 jobs: one collect of the seeds, one per ℓ") {
    g.degrees // builds the adjacency
    val seeds = GraphOps.materialize(labelsDf) // pins the read of a cached table (1 job)
    val jobs = SparkCounters.of(spark)(Sketch.compute(g, seeds, k, lmax = 5)).jobs
    assert(jobs == 6, s"$jobs jobs")
  }

  test("compute rejects lmax < 1") {
    intercept[IllegalArgumentException](Sketch.compute(g, labelsDf, k, lmax = 0))
  }

  test("Thm 4.1 (Example 4.2): P̂_NB⁽²⁾ is nearly unbiased for H², full paths overshoot the diagonal") {
    import repro.graphgen.{DegreeDist, PlantedGraph}
    val h = CompatibilityMatrix.planted(3, 3.0) // H from Example 4.2
    val h2 = h * h                              // diag 0.44, off-diag 0.28
    val gen = PlantedGraph.generate(spark, n = 3000, m = 30000,
      alpha = Array(1.0 / 3, 1.0 / 3, 1.0 / 3), h = h, dist = DegreeDist.Uniform, seed = 42)
    val seeds = repro.eval.Accuracy.sampleSeeds(gen.labels, 0.3, seed = 1)
    val sk = Sketch.compute(gen.graph, seeds, 3, lmax = 2)
    val pNB = sk.pNB(2)
    val pFull = sk.pFull(2)
    val diagNB = (0 until 3).map(i => pNB(i, i)).sum / 3
    val diagFull = (0 until 3).map(i => pFull(i, i)).sum / 3
    // NB estimator close to the 0.44 diagonal; full-path estimator biased high.
    assert(math.abs(diagNB - 0.44) < 0.04, s"diagNB=$diagNB")
    assert(diagFull > diagNB + 0.01, s"diagFull=$diagFull diagNB=$diagNB")
    assert(pNB.frobDist(h2) < pFull.frobDist(h2), "NB must be the better estimator of H²")
  }
}
