package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T7 — Fig. 6g (accuracy vs k) and Fig. 6l (estimation time vs k).
  *
  * Paper shape: DCEr stays robustly above the alternatives as k grows
  * (the number of parameters is O(k²)) while homophily baselines sit
  * near random 1/k; the sketch time dominates the optimization for small
  * k and the O(k⁴·r) optimization grows with k.
  */
object T7Classes {

  final case class Row(
      k: Int,
      accGS: Double,
      accDCEr: Double,
      accMCE: Double,
      accHarmonic: Double,
      random: Double,
      sketchMs: Long,
      optMs: Long)

  private val Ks = Seq(2, 3, 4, 5, 7)
  private val N = 10000L
  private val AvgDegree = 10.0
  // The paper's default skew; weaker h leaves no ℓ=5 signal at high k
  // (ρ(H̃) = (h−1)/(k−1+h)).
  private val HSkew = 8.0
  private val F = 0.05

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    Ks.map { k =>
      val h = CompatibilityMatrix.planted(k, HSkew)
      val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
        Array.fill(k)(1.0 / k), h, DegreeDist.PowerLaw(0.3), seed + k)
      val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)
      val seeds = Accuracy.sampleSeeds(gen.labels, F, seed + 1)
      val (sk, tSketch) = TableUtil.timed(Sketch.compute(gen.graph, seeds, k, lmax = 5))
      val (dcer, tOpt) = TableUtil.timed(Estimators.dcer(sk, restarts = 10, seed = seed + 2))
      val mce = Estimators.mce(sk)
      val Seq(accGS, accDcer, accMce) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, dcer.h, mce.h))
      val accHarm = Accuracy.accuracyOf(
        GraphOps.argmaxLabels(Baselines.harmonic(gen.graph, seeds, k)), gen.labels, seeds)
      Row(k, accGS, accDcer, accMce, accHarm, 1.0 / k, tSketch, tOpt)
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T7 (Fig. 6g/6l): accuracy and estimation time vs number of classes k (n=10k, d=10, h=8, f=0.05)",
      Seq("k", "GS", "DCEr", "MCE", "harmonic", "random", "t_sketch", "t_opt(DCEr)"),
      rows.map(r => Seq(r.k.toString, TableUtil.f3(r.accGS), TableUtil.f3(r.accDCEr),
        TableUtil.f3(r.accMCE), TableUtil.f3(r.accHarmonic), TableUtil.f3(r.random),
        TableUtil.ms(r.sketchMs), TableUtil.ms(r.optMs))))
}
