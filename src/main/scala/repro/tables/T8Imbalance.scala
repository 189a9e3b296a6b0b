package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}
import repro.linalg.Dense

/** T8 — Fig. 6j / Result 4: class imbalance α = [1/6, 1/3, 1/2] with the
  * general (non-two-valued) compatibility matrix
  * H = [[.2,.6,.2],[.6,.1,.3],[.2,.3,.5]].
  *
  * Paper shape: DCEr stays at GS level and above MCE/LCE/baselines even
  * with label imbalance and arbitrary H.
  */
object T8Imbalance {

  val PaperH: Dense = Dense.fromRows(Seq(
    Seq(0.2, 0.6, 0.2),
    Seq(0.6, 0.1, 0.3),
    Seq(0.2, 0.3, 0.5)))

  val PaperAlpha: Array[Double] = Array(1.0 / 6, 1.0 / 3, 1.0 / 2)

  final case class Row(
      f: Double,
      accGS: Double,
      accDCEr: Double,
      accMCE: Double,
      accHarmonic: Double,
      majority: Double, // accuracy of always predicting the largest class
      l2DCEr: Double)

  private val N = 10000L
  private val AvgDegree = 10.0
  private val Fs = Seq(0.003, 0.01, 0.03)

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    val k = 3
    val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
      PaperAlpha, PaperH, DegreeDist.PowerLaw(0.3), seed)
    val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)
    Fs.map { f =>
      val seeds = Accuracy.sampleSeeds(gen.labels, f, seed + math.round(f * 1e6))
      val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
      val dcer = Estimators.dcer(sk, restarts = 10, seed = seed + 3)
      val mce = Estimators.mce(sk)
      val Seq(accGS, accDcer, accMce) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, dcer.h, mce.h))
      val accHarm = Accuracy.accuracyOf(
        GraphOps.argmaxLabels(Baselines.harmonic(gen.graph, seeds, k)), gen.labels, seeds)
      Row(f, accGS, accDcer, accMce, accHarm, PaperAlpha.max, dcer.h.frobDist(gs))
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T8 (Fig. 6j): imbalanced α=[1/6,1/3,1/2] with general H (n=10k, d=10)",
      Seq("f", "GS", "DCEr", "MCE", "harmonic", "majority", "L2(DCEr,GS)"),
      rows.map(r => Seq(r.f.toString, TableUtil.f3(r.accGS), TableUtil.f3(r.accDCEr),
        TableUtil.f3(r.accMCE), TableUtil.f3(r.accHarmonic), TableUtil.f3(r.majority),
        TableUtil.f3(r.l2DCEr))))
}
