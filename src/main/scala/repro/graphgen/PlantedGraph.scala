package repro.graphgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{GraphOps, SparseGraph}
import repro.linalg.Dense

/** Synthetic graph generator with planted compatibilities (§5).
  *
  * A variant of the stochastic block model that (i) controls the degree
  * distribution and (ii) plants the compatibility matrix as exact
  * class-pair edge budgets rather than only in expectation. Input is the
  * paper's tuple (n, m, α, H, dist):
  *
  *  - nodes 0..n−1 get classes in contiguous ranges sized by α;
  *  - each unordered class pair (c ≤ d) gets an edge budget
  *    m_cd ∝ (α_c·H_cd + α_d·H_dc)/2, so the planted H is the expected
  *    neighbor frequency distribution;
  *  - endpoints inside each block are drawn by inverse-CDF over the
  *    degree family, giving uniform or power-law degrees.
  *
  * Each endpoint draw is [[GraphOps.uniform]] keyed by (seed, the edge's
  * `spark.range` id in its block), not by the partitioning, so a seed
  * gives the same edge set on any number of cores.
  *
  * Deduplication and self-loop removal drop a small fraction of draws
  * (≲2% at the sparsities used here), so m is matched approximately; the
  * gold standard is therefore *measured* on the generated graph
  * (`repro.eval.Accuracy.measuredGS`), exactly as the paper measures GS
  * on the fully labeled graph.
  */
object PlantedGraph {

  /** A generated graph plus its ground-truth labels (node, cls). */
  final case class Generated(graph: SparseGraph, labels: DataFrame, classSizes: Array[Long])

  def generate(
      spark: SparkSession,
      n: Long,
      m: Long,
      alpha: Array[Double],
      h: Dense,
      dist: DegreeDist = DegreeDist.Uniform,
      seed: Long = 0): Generated = {
    val k = alpha.length
    require(h.rows == k && h.cols == k, "H and alpha disagree on k")
    require(math.abs(alpha.sum - 1.0) < 1e-6, s"alpha must sum to 1, got ${alpha.sum}")
    for (c <- 0 until k) require(alpha(c) > 0, s"alpha($c) = ${alpha(c)}: every class needs alpha > 0")
    for (c <- 0 until k; d <- 0 until k) require(h(c, d) >= 0, s"H($c,$d) = ${h(c, d)}: every entry of H must be >= 0")

    // Contiguous class ranges: class c occupies [offsets(c), offsets(c+1)).
    val sizes = Array.tabulate(k)(c => math.max(1L, math.round(alpha(c) * n)))
    sizes(k - 1) += n - sizes.sum // absorb rounding in the last class
    require(sizes.forall(_ >= 1), s"class sizes must be >= 1: ${sizes.mkString(",")}")
    val offsets = sizes.scanLeft(0L)(_ + _)

    // Block budgets over unordered class pairs.
    val pairs = for { c <- 0 until k; d <- c until k } yield (c, d)
    val rawW = pairs.map { case (c, d) =>
      if (c == d) alpha(c) * h(c, c) else alpha(c) * h(c, d) + alpha(d) * h(d, c)
    }
    val wSum = rawW.sum
    val budgets = rawW.map(w => math.round(m * w / wSum))

    import spark.implicits._
    val blocks = pairs.zip(budgets).zipWithIndex.collect {
      case (((c, d), cnt), i) if cnt > 0 =>
        spark.range(cnt).as[Long].map(id => (
          offsets(c) + dist.rank(GraphOps.uniform(seed + 2L * i, id), sizes(c)),
          offsets(d) + dist.rank(GraphOps.uniform(seed + 2L * i + 1, id), sizes(d))))
    }
    require(blocks.nonEmpty, "no block received a positive edge budget")
    val graph = GraphOps.fromUndirected(spark, n, blocks.reduce(_ union _).toDF("src", "dst"))
    val labels = GraphOps.materialize(
      spark.range(n).as[Long].map(node => (node, offsets.lastIndexWhere(_ <= node))).toDF("node", "cls"))
    Generated(graph, labels, sizes)
  }
}
