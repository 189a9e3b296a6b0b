package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T11 — Fig. 6a/6b / Result 1: sensitivity to the normalization variant
  * and the (λ, ℓmax) hyperparameters, measured as L2 distance of the
  * estimate from the gold standard.
  *
  * Paper shape: variant 1 (row-normalization) is best and ℓmax = 5 with
  * λ = 10 is a robust choice; even ℓmax behaves worse (mirror optima);
  * ℓmax = 1 (MCE) cannot exploit distant signal at small f.
  * The sketch is computed once — normalization and weighting are
  * driver-side, so the whole sweep costs one graph pass.
  */
object T11Sensitivity {

  final case class VariantRow(variant: Int, lmax: Int, l2: Double)
  final case class LambdaRow(lambda: Double, lmax: Int, l2: Double)

  final case class Result(variants: Seq[VariantRow], lambdas: Seq[LambdaRow])

  private val N = 10000L
  private val AvgDegree = 10.0
  private val F = 0.01

  def run(spark: SparkSession, seed: Long = 0): Result = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, 8.0)
    val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
      Array.fill(k)(1.0 / k), h, DegreeDist.PowerLaw(0.3), seed)
    val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)
    val seeds = Accuracy.sampleSeeds(gen.labels, F, seed + 1)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)

    val variants = for (v <- 1 to 3; lm <- Seq(1, 3, 5)) yield {
      val est = Estimators.dcer(sk, lmax = lm, lambda = 10.0, variant = v,
        restarts = 10, seed = seed + v)
      VariantRow(v, lm, est.h.frobDist(gs))
    }
    val lambdas = for (lambda <- Seq(0.1, 1.0, 10.0, 100.0); lm <- Seq(1, 2, 3, 5)) yield {
      val est = Estimators.dcer(sk, lmax = lm, lambda = lambda,
        restarts = 10, seed = seed + math.round(lambda * 10))
      LambdaRow(lambda, lm, est.h.frobDist(gs))
    }
    Result(variants, lambdas)
  }

  def format(r: Result): String = {
    val a = TableUtil.format(
      "T11a (Fig. 6a): normalization variants (L2 to GS; n=10k, d=10, h=8, f=0.01)",
      Seq("variant", "ℓmax", "L2(est, GS)"),
      r.variants.map(v => Seq(v.variant.toString, v.lmax.toString, TableUtil.f3(v.l2))))
    val b = TableUtil.format(
      "T11b (Fig. 6b): λ × ℓmax sweep (L2 to GS)",
      Seq("λ", "ℓmax", "L2(est, GS)"),
      r.lambdas.map(v => Seq(v.lambda.toString, v.lmax.toString, TableUtil.f3(v.l2))))
    a + "\n\n" + b
  }
}
