package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T2 — Fig. 3b / Fig. 6k / §5.2: wall-clock of estimation vs propagation
  * as the graph grows.
  *
  * Paper shape to reproduce: MCE < DCE ≈ DCEr ≪ Holdout, with DCEr
  * cheaper than propagation for large m (DCE and DCEr converge to the
  * same cost because the sketch dominates). Holdout — which runs
  * propagation once per objective evaluation — is run only at the
  * smallest size and its cost per edge extrapolates 3–4 orders of
  * magnitude above DCEr, as in the paper.
  */
object T2Scalability {

  final case class Row(
      n: Long,
      m: Long,
      rhoMs: Long,        // spectral radius (shared prerequisite of propagation)
      propagateMs: Long,  // LinBP, 10 iterations
      sketchMs: Long,     // factorized summaries, ℓmax=5 (shared by MCE/DCE/DCEr)
      mceMs: Long,        // optimization only
      dceMs: Long,
      dcerMs: Long,       // 10 restarts
      dcerConverged: Boolean, // DCEr's kept run reached BFGS's gradient tolerance
      dcerStop: BFGS.Stop,    // why DCEr's kept run stopped
      lceMs: Long,
      holdoutMs: Long)    // −1 when skipped

  private val Sizes = Seq(2000L, 8000L, 32000L, 100000L)
  private val AvgDegree = 10.0
  private val F = 0.01
  private val HoldoutMaxN = 2000L // Holdout runs at this size and below
  private val HoldoutEvals = 10

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, 8.0)
    def row(n: Long): Row = {
      val gen = PlantedGraph.generate(spark, n, math.round(n * AvgDegree / 2),
        Array.fill(k)(1.0 / k), h, DegreeDist.PowerLaw(0.3), seed + n)
      val seeds = Accuracy.sampleSeeds(gen.labels, F, seed + 1)
      val (_, tRho) = TableUtil.timed(gen.graph.rho)
      val (_, tProp) = TableUtil.timed(LinBP.run(gen.graph, seeds, h, iterations = 10))
      val (sk, tSketch) = TableUtil.timed(Sketch.compute(gen.graph, seeds, k, lmax = 5))
      val (_, tMce) = TableUtil.timed(Estimators.mce(sk))
      val (_, tDce) = TableUtil.timed(Estimators.dce(sk))
      val (dcer, tDcer) = TableUtil.timed(Estimators.dcer(sk, restarts = 10, seed = seed))
      val (_, tLce) = TableUtil.timed(Estimators.lce(sk))
      val tHoldout =
        if (n <= HoldoutMaxN)
          TableUtil.timed(Estimators.holdout(gen.graph, seeds, k, b = 1,
            maxEvals = HoldoutEvals, seed = seed))._2
        else -1L
      Row(n, gen.graph.m, tRho, tProp, tSketch, tMce, tDce, tDcer, dcer.converged, dcer.stop.get, tLce, tHoldout)
    }
    // One untimed pass first, so the first timed row does not pay the
    // session's JIT and codegen warm-up.
    Sizes.take(1).foreach(row)
    Sizes.map(row)
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T2 (Fig. 3b/6k): estimation vs propagation wall-clock (opt columns exclude the shared sketch)",
      Seq("n", "m", "t_rho", "t_propagate", "t_sketch", "t_MCE", "t_DCE", "t_DCEr", "DCEr_converged", "DCEr_stop", "t_LCE", "t_Holdout"),
      rows.map(r => Seq(r.n.toString, r.m.toString, TableUtil.ms(r.rhoMs),
        TableUtil.ms(r.propagateMs), TableUtil.ms(r.sketchMs), TableUtil.ms(r.mceMs),
        TableUtil.ms(r.dceMs), TableUtil.ms(r.dcerMs), r.dcerConverged.toString, r.dcerStop.toString, TableUtil.ms(r.lceMs),
        if (r.holdoutMs < 0) "—" else TableUtil.ms(r.holdoutMs))))
}
