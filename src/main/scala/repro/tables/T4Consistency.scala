package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T4 — Fig. 5a / Example 4.2 / Thm. 4.1: consistency of the
  * non-backtracking statistics.
  *
  * With H = [[.2,.6,.2],[.6,.2,.2],[.2,.2,.6]] (h=3) the top entry of H^ℓ
  * follows 0.6, 0.44, 0.376, 0.3504, … . The NB estimator P̂_NB⁽ℓ⁾ must
  * track that series; the full-path estimator P̂⁽ℓ⁾ overshoots because
  * backtracking paths inflate the diagonal (bias O(1/d) vs O(1/m)).
  */
object T4Consistency {

  final case class Row(
      l: Int,
      truth: Double,    // max entry of H^ℓ (planted)
      estNB: Double,    // same entry of P̂_NB⁽ℓ⁾
      estFull: Double,  // same entry of P̂⁽ℓ⁾
      l2NB: Double,     // ‖P̂_NB⁽ℓ⁾ − H^ℓ‖
      l2Full: Double)

  private val N = 10000L
  private val AvgDegree = 20.0
  private val F = 0.1
  private val Lmax = 5

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, 3.0)
    val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
      Array.fill(k)(1.0 / k), h, DegreeDist.Uniform, seed)
    val seeds = Accuracy.sampleSeeds(gen.labels, F, seed + 1)
    val sk = Sketch.compute(gen.graph, seeds, k, Lmax)
    // Track the (0,1) entry — the max of H (classes 0↔1 attract), whose
    // image under H^ℓ is the paper's 0.6, 0.44, … series at positions
    // alternating between (0,1) (odd ℓ) and (0,0) (even ℓ).
    (1 to Lmax).map { l =>
      val hl = h.pow(l)
      val (i, j) = if (l % 2 == 1) (0, 1) else (0, 0)
      Row(l, hl(i, j), sk.pNB(l)(i, j), sk.pFull(l)(i, j),
        sk.pNB(l).frobDist(hl), sk.pFull(l).frobDist(hl))
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T4 (Fig. 5a): NB vs full-path statistics against H^ℓ (n=10k, d=20, h=3, f=0.1)",
      Seq("ℓ", "H^ℓ top entry", "P̂_NB", "P̂_full", "L2(NB, H^ℓ)", "L2(full, H^ℓ)"),
      rows.map(r => Seq(r.l.toString, TableUtil.f3(r.truth), TableUtil.f3(r.estNB),
        TableUtil.f3(r.estFull), TableUtil.f3(r.l2NB), TableUtil.f3(r.l2Full))))
}
