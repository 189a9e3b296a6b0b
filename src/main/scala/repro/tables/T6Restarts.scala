package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T6 — Fig. 6h / Result 3: DCEr accuracy vs the number of restarts r,
  * against the "global minimum" baseline obtained by initializing the
  * optimization at the gold standard.
  *
  * Paper shape: by r = 10 DCEr reaches the GS-initialized optimum.
  */
object T6Restarts {

  final case class Row(
      restarts: Int,
      energy: Double,
      acc: Double,
      l2ToGS: Double,
      energyGlobal: Double, // GS-initialized optimum (baseline)
      accGlobal: Double)

  private val N = 10000L
  private val AvgDegree = 10.0
  private val F = 0.003
  private val Rs = Seq(1, 2, 4, 10)

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, 8.0)
    val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
      Array.fill(k)(1.0 / k), h, DegreeDist.PowerLaw(0.3), seed)
    val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)
    val seeds = Accuracy.sampleSeeds(gen.labels, F, seed + 1)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val global = Estimators.dce(sk, init = Some(CompatibilityMatrix.toFree(gs)))
    val ests = Rs.map(r => Estimators.dcer(sk, restarts = r, seed = seed + 5))
    val accGlobal +: accs = Accuracy.endToEnd(gen.graph, gen.labels, seeds, global.h +: ests.map(_.h))
    Rs.lazyZip(ests).lazyZip(accs).map { (r, est, acc) =>
      Row(r, est.energy, acc, est.h.frobDist(gs), global.energy, accGlobal)
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T6 (Fig. 6h): DCEr vs restarts r, against the GS-initialized global optimum",
      Seq("r", "energy", "acc", "L2(GS)", "energy(global)", "acc(global)"),
      rows.map(r => Seq(r.restarts.toString, f"${r.energy}%.2e", TableUtil.f3(r.acc),
        TableUtil.f3(r.l2ToGS), f"${r.energyGlobal}%.2e", TableUtil.f3(r.accGlobal))))
}
