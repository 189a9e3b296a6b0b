package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T3 — Fig. 3a / Fig. 6f: end-to-end labeling accuracy vs seed fraction
  * f for every estimation method, against the gold standard.
  *
  * Paper shape: DCEr tracks GS within ±0.01–0.05 down to a handful of
  * seed nodes (8 labeled of 10k → accuracy ≈ 0.51 in Fig. 3a); MCE and
  * LCE collapse once labeled-labeled edges run out (~m·f²); Holdout is
  * below DCEr and orders of magnitude slower.
  */
object T3AccuracyVsF {

  final case class Row(
      f: Double,
      nSeeds: Long,
      accGS: Double,
      accDCEr: Double,
      accDCE: Double,
      accMCE: Double,
      accLCE: Double,
      accHoldout: Double, // NaN when skipped
      l2DCEr: Double,
      l2MCE: Double)

  private val N = 10000L
  private val AvgDegree = 10.0
  private val Fs = Seq(0.0008, 0.003, 0.01, 0.03, 0.1)
  private val HoldoutFs = Set(0.01) // Holdout runs only at these f
  private val HoldoutEvals = 15

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, 8.0)
    val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
      Array.fill(k)(1.0 / k), h, DegreeDist.PowerLaw(0.3), seed)
    val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)
    Fs.map { f =>
      val seeds = Accuracy.sampleSeeds(gen.labels, f, seed + math.round(f * 1e6))
      val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
      val dcer = Estimators.dcer(sk, restarts = 10, seed = seed + 7)
      val dce = Estimators.dce(sk)
      val mce = Estimators.mce(sk)
      val lce = Estimators.lce(sk)
      val hold =
        if (HoldoutFs.contains(f))
          Seq(Estimators.holdout(gen.graph, seeds, k, b = 1, maxEvals = HoldoutEvals, seed = seed).h)
        else Nil
      val accs = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, dcer.h, dce.h, mce.h, lce.h) ++ hold)
      Row(f, seeds.count(), accs(0), accs(1), accs(2), accs(3), accs(4),
        accs.lift(5).getOrElse(Double.NaN), dcer.h.frobDist(gs), mce.h.frobDist(gs))
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T3 (Fig. 3a/6f): end-to-end accuracy vs seed fraction f (n=10k, d=10, h=8, k=3)",
      Seq("f", "#seeds", "GS", "DCEr", "DCE", "MCE", "LCE", "Holdout", "L2(DCEr)", "L2(MCE)"),
      rows.map(r => Seq(r.f.toString, r.nSeeds.toString, TableUtil.f3(r.accGS),
        TableUtil.f3(r.accDCEr), TableUtil.f3(r.accDCE), TableUtil.f3(r.accMCE),
        TableUtil.f3(r.accLCE),
        if (r.accHoldout.isNaN) "—" else TableUtil.f3(r.accHoldout),
        TableUtil.f3(r.l2DCEr), TableUtil.f3(r.l2MCE))))
}
