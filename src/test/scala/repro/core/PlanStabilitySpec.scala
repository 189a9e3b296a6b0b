package repro.core

import org.apache.spark.metrics.source.CodegenMetrics
import repro.SparkSpec
import repro.eval.Accuracy
import repro.testutil.{DenseRef, LocalGraphs}

/** Every layer runs one plan per hop, within a call and across calls.
  *
  * Spark's codegen cache holds 100 generated classes per JVM, keyed by
  * class loader and source; a plan that differs by hop or by call pushes
  * the pipeline's classes out of it, and every later operation compiles
  * them again. Each test counts compilations around a call that repeats
  * work an earlier call did. Suites run one at a time in one JVM
  * (`Test / parallelExecution := false`), so no other suite moves the
  * counter meanwhile.
  */
class PlanStabilitySpec extends SparkSpec {

  private val n = 40
  private val k = 3
  private lazy val edges = LocalGraphs.graph(spark, n, DenseRef.randomEdges(n, 100, seed = 31)).edges
  private lazy val truth = LocalGraphs.labels(spark, (0 until n).map(i => i -> i % k).toMap)
  private lazy val seeds = LocalGraphs.labels(spark, (0 until n).filter(_ % 4 == 0).map(i => i -> i % k).toMap)
  private val h = CompatibilityMatrix.planted(k, 8)

  /** A new graph over the same edges, so no lazy value of an earlier call is reused. */
  private def fresh: SparseGraph = SparseGraph(n, edges)

  private def compilations(body: => Any): Long = {
    val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    body
    CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before
  }

  test("spectralRadius with 6 iterations after one with 2 compiles nothing") {
    GraphOps.spectralRadius(fresh, 2)
    assert(compilations(GraphOps.spectralRadius(fresh, 6)) == 0)
  }

  test("LinBP.run with 6 iterations after one with 2 compiles nothing") {
    val rho = GraphOps.spectralRadius(fresh, 5)
    LinBP.run(fresh, seeds, h, iterations = 2, rhoW = Some(rho))
    assert(compilations(LinBP.run(fresh, seeds, h, iterations = 6, rhoW = Some(rho))) == 0)
  }

  test("LinBP.run with a new H after a first run compiles nothing") {
    val rho = GraphOps.spectralRadius(fresh, 5)
    LinBP.run(fresh, seeds, h, iterations = 3, rhoW = Some(rho))
    val other = CompatibilityMatrix.planted(k, 2)
    assert(compilations(LinBP.run(fresh, seeds, other, iterations = 3, rhoW = Some(rho))) == 0)
  }

  test("a second Estimators.holdout with another seed compiles nothing") {
    Estimators.holdout(fresh, seeds, k, maxEvals = 8, iterations = 3, seed = 1)
    assert(compilations(Estimators.holdout(fresh, seeds, k, maxEvals = 8, iterations = 3, seed = 2)) == 0)
  }

  test("Sketch.compute with ℓmax 5 after one with ℓmax 2 compiles nothing") {
    Sketch.compute(fresh, seeds, k, lmax = 2)
    assert(compilations(Sketch.compute(fresh, seeds, k, lmax = 5)) == 0)
  }

  test("the label pipeline compiles nothing when it runs a second time") {
    def pipeline(): Double = {
      val g = fresh
      val rho = GraphOps.spectralRadius(g, 5)
      val sk = Sketch.compute(g, seeds, k, lmax = 5)
      val est = Estimators.dcer(sk, restarts = 3)
      val f = LinBP.run(g, seeds, est.h, iterations = 5, rhoW = Some(rho))
      Accuracy.accuracyOf(GraphOps.argmaxLabels(f), truth, seeds)
    }
    val first = pipeline()
    var second = 0.0
    assert(compilations { second = pipeline() } == 0)
    assert(second == first)
  }
}
