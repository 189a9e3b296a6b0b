package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.{Accuracy, RealWorld}

/** T10 — Fig. 12 / Appendix E.1: the two-value (High/Low) heuristic from
  * prior work vs DCEr on the MovieLens-like and Prop-37-like surrogates.
  *
  * Paper shape: on MovieLens the GS really is near two-valued, so the
  * heuristic labels about as well as DCEr; on Prop-37 the compatibilities
  * are not two-valued and the heuristic collapses toward random while
  * DCEr stays at GS level.
  */
object T10Heuristics {

  final case class Row(
      dataset: String,
      f: Double,
      accGS: Double,
      accDCEr: Double,
      accHeuristic: Double,
      random: Double)

  def run(
      spark: SparkSession,
      maxEdges: Long = 100000,
      f: Double = 0.01,
      seed: Long = 0): Seq[Row] = {
    Seq(RealWorld.movieLens, RealWorld.prop37).map { full =>
      val spec = full.scaled(maxEdges)
      val gen = RealWorld.generate(spark, spec, seed)
      val gs = Accuracy.measuredGS(gen.graph, gen.labels, spec.k)
      val seeds = Accuracy.sampleSeeds(gen.labels, f, seed + 1)
      val sk = Sketch.compute(gen.graph, seeds, spec.k, lmax = 5)
      val dcer = Estimators.dcer(sk, restarts = 10, seed = seed + 2)
      val heur = Heuristics.twoValue(gs)
      val Seq(accGS, accDcer, accHeur) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, dcer.h, heur))
      Row(spec.name, f, accGS, accDcer, accHeur, 1.0 / spec.k)
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T10 (Fig. 12): two-value heuristic vs DCEr on MovieLens/Prop-37 surrogates",
      Seq("dataset", "f", "GS", "DCEr", "heuristic", "random"),
      rows.map(r => Seq(r.dataset, r.f.toString, TableUtil.f3(r.accGS),
        TableUtil.f3(r.accDCEr), TableUtil.f3(r.accHeuristic), TableUtil.f3(r.random))))
}
