package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T9 — Fig. 6i: sanity check that homophily-assuming SSL (harmonic
  * functions, MultiRankWalk) collapses on graphs with arbitrary
  * compatibilities, while compatibility-aware propagation does not.
  */
object T9Baselines {

  final case class Row(
      f: Double,
      accGS: Double,
      accDCEr: Double,
      accHarmonic: Double,
      accMRW: Double,
      random: Double)

  def run(
      spark: SparkSession,
      n: Long = 10000,
      avgDegree: Double = 10.0,
      hSkew: Double = 8.0,
      fs: Seq[Double] = Seq(0.01, 0.05),
      seed: Long = 0): Seq[Row] = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, hSkew)
    val gen = PlantedGraph.generate(spark, n, math.round(n * avgDegree / 2),
      Array.fill(k)(1.0 / k), h, DegreeDist.PowerLaw(0.3), seed)
    val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)
    fs.map { f =>
      val seeds = Accuracy.sampleSeeds(gen.labels, f, seed + math.round(f * 1e6))
      val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
      val dcer = Estimators.dcer(sk, restarts = 10, seed = seed + 3)
      val Seq(accGS, accDcer) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, dcer.h))
      Row(f, accGS, accDcer,
        Accuracy.accuracyOf(GraphOps.argmaxLabels(Baselines.harmonic(gen.graph, seeds, k)), gen.labels, seeds),
        Accuracy.accuracyOf(GraphOps.argmaxLabels(Baselines.multiRankWalk(gen.graph, seeds, k)), gen.labels, seeds),
        1.0 / k)
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T9 (Fig. 6i): homophily baselines under heterophily (n=10k, d=10, h=8)",
      Seq("f", "GS", "DCEr", "harmonic", "MRW", "random"),
      rows.map(r => Seq(r.f.toString, TableUtil.f3(r.accGS), TableUtil.f3(r.accDCEr),
        TableUtil.f3(r.accHarmonic), TableUtil.f3(r.accMRW), TableUtil.f3(r.random))))
}
