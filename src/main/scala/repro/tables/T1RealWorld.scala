package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.{Estimators, Sketch}
import repro.eval.{Accuracy, RealWorld}

/** T1 — Fig. 8 (dataset statistics + DCEr runtime) and T12 — Fig. 14
  * (L2 distance of the DCEr estimate from the gold standard), over the 8
  * real-world dataset surrogates.
  *
  * Large datasets are scaled down to `maxEdges` (see DESIGN.md §2 —
  * Spark local[*] replaces the paper's single-core NumPy, and the bench
  * budget replaces their hours); the reported n/m are the generated ones.
  */
object T1RealWorld {

  final case class Row(
      name: String,
      n: Long,
      m: Long,
      avgDegree: Double,
      k: Int,
      sketchMs: Long,
      optMs: Long,
      l2DcerToGS: Double,
      l2MceToGS: Double,
      accGS: Double,
      accDCEr: Double)

  def run(
      spark: SparkSession,
      maxEdges: Long = 150000,
      f: Double = 0.01,
      seed: Long = 0): Seq[Row] = {
    RealWorld.all.map { full =>
      val spec = full.scaled(maxEdges)
      val gen = RealWorld.generate(spark, spec, seed)
      val m = gen.graph.m
      val gs = Accuracy.measuredGS(gen.graph, gen.labels, spec.k)
      val seeds = Accuracy.sampleSeeds(gen.labels, f, seed + 1)
      val (sk, tSketch) = TableUtil.timed(Sketch.compute(gen.graph, seeds, spec.k, lmax = 5))
      val (dcer, tOpt) = TableUtil.timed(
        Estimators.dcer(sk, restarts = 10, seed = seed + 2))
      val mce = Estimators.mce(sk)
      val Seq(accGS, accEst) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, dcer.h))
      Row(spec.name, spec.n, m, 2.0 * m / spec.n, spec.k,
        tSketch, tOpt, dcer.h.frobDist(gs), mce.h.frobDist(gs), accGS, accEst)
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T1 (Fig. 8 + Fig. 14): real-world surrogates — size, DCEr runtime, estimation quality",
      Seq("dataset", "n", "m", "d", "k", "t_sketch", "t_opt", "L2(DCEr,GS)", "L2(MCE,GS)", "acc(GS)", "acc(DCEr)"),
      rows.map(r => Seq(r.name, r.n.toString, r.m.toString, TableUtil.f2(r.avgDegree),
        r.k.toString, TableUtil.ms(r.sketchMs), TableUtil.ms(r.optMs),
        TableUtil.f3(r.l2DcerToGS), TableUtil.f3(r.l2MceToGS),
        TableUtil.f3(r.accGS), TableUtil.f3(r.accDCEr))))
}
