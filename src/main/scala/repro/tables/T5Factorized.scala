package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}

/** T5 — Fig. 5b / Example 4.6: factorized path summation vs explicit
  * evaluation of W^ℓ.
  *
  * The naive strategy materializes W^ℓ, whose size grows as ~d^(ℓ−1)·m
  * and quickly dwarfs the graph; the factorized strategy (Alg. 4.4)
  * keeps n×k intermediates and computes *all* sketches up to ℓ in
  * O(m·k·ℓ). The paper reports three orders of magnitude at ℓ=5 and
  * summarizes >10¹⁴ paths in milliseconds; the crossover shape — explicit
  * cost exploding in ℓ while factorized cost stays linear — is the claim
  * to reproduce. Explicit evaluation is capped at [[ExplicitMaxL]] because
  * it stops being feasible, which is the point.
  */
object T5Factorized {

  final case class Row(
      l: Int,
      factorizedMs: Long,   // all sketches ℓ' ≤ ℓ via Algorithm 4.4
      explicitMs: Long,     // materializing W^ℓ (−1 when skipped)
      explicitEntries: Long, // nnz of the materialized W^ℓ (−1 when skipped)
      approxPaths: Double)  // ≈ total paths of length ℓ summarized (n·d^ℓ)

  private val N = 3000L
  private val AvgDegree = 20.0
  private val F = 0.1
  private val Ls = Seq(1, 2, 3, 4, 5, 8)
  private val ExplicitMaxL = 4

  def run(spark: SparkSession, seed: Long = 0): Seq[Row] = {
    val k = 3
    val h = CompatibilityMatrix.planted(k, 3.0)
    val gen = PlantedGraph.generate(spark, N, math.round(N * AvgDegree / 2),
      Array.fill(k)(1.0 / k), h, DegreeDist.Uniform, seed)
    val seeds = Accuracy.sampleSeeds(gen.labels, F, seed + 1)
    val d = 2.0 * gen.graph.m / N
    Ls.map { l =>
      val (_, tFact) = TableUtil.timed(Sketch.compute(gen.graph, seeds, k, lmax = l))
      val (tExp, entries) =
        if (l <= ExplicitMaxL) {
          val (p, t) = TableUtil.timed {
            val pw = GraphOps.explicitPower(gen.graph.edges, l)
            pw.count()
          }
          (t, p)
        } else (-1L, -1L)
      Row(l, tFact, tExp, entries, N * math.pow(d, l))
    }
  }

  def format(rows: Seq[Row]): String =
    TableUtil.format(
      "T5 (Fig. 5b): factorized summation (all ℓ'≤ℓ) vs explicit W^ℓ (n=3k, d=20)",
      Seq("ℓ", "t_factorized", "t_explicit", "nnz(W^ℓ)", "~paths"),
      rows.map(r => Seq(r.l.toString, TableUtil.ms(r.factorizedMs),
        if (r.explicitMs < 0) "infeasible" else TableUtil.ms(r.explicitMs),
        if (r.explicitEntries < 0) "—" else r.explicitEntries.toString,
        f"${r.approxPaths}%.2e")))
}
