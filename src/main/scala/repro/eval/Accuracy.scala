package repro.eval

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, LinBP, Sketch, SparseGraph}
import repro.linalg.Dense

/** End-to-end quality assessment (§5, "Quality assessment").
  *
  * Seeds are a stratified random fraction f of nodes (classes sampled in
  * proportion to their frequencies); accuracy is the fraction of the
  * *remaining* nodes that receive their true label.
  */
object Accuracy {

  /** Stratified seed sample: per class, ⌈max(1, round(f·n_c))⌉ nodes
    * chosen uniformly (seeded, deterministic). Each class keeps its nodes
    * with the smallest draws [[GraphOps.uniform]](seed, node), ties broken
    * by node id, so the sample depends on the seed and the labels, not on
    * how ``labels`` is partitioned.
    */
  def sampleSeeds(labels: DataFrame, f: Double, seed: Long = 0): DataFrame = {
    require(f > 0 && f < 1, s"seed fraction must be in (0,1), got $f")
    val w = Window.partitionBy("cls").orderBy(GraphOps.uniform(seed, col("node")), col("node"))
    GraphOps.materialize(
      labels
        .withColumn("__rn", row_number().over(w))
        .withColumn("__cnt", count(lit(1)).over(Window.partitionBy("cls")))
        .where(col("__rn") <= greatest(lit(1L), round(col("__cnt") * f)))
        .select("node", "cls"))
  }

  /** Gold standard: relative label frequencies between neighbors measured
    * on the *fully labeled* graph — the row-normalized M⁽¹⁾ = XᵀWX at
    * f = 1 (§5.3). This is what the paper calls GS for real data.
    */
  def measuredGS(g: SparseGraph, labels: DataFrame, k: Int): Dense =
    Sketch.compute(g, labels, k, 1).mFull(0).rowNormalized

  /** Accuracy of predictions over labeled truth, excluding seed nodes.
    * Nodes that never received any belief default to class 0, matching
    * an argmax over an all-zero row.
    */
  def accuracyOf(predictions: DataFrame, truth: DataFrame, seeds: DataFrame): Double =
    scores(truth, seeds, predictions, Seq(col("cls"))).head

  /** For every prediction column, evaluated over ``predictions``, the
    * fraction of the (node, cls) rows of ``truth`` whose node is not in
    * ``seeds`` that get their true class; a node without a prediction
    * counts as class 0. Fails when no such row is left, where every
    * accuracy would be 0/0.
    *
    * One job: the three tables are unioned and grouped by node, each node
    * keeping its truth, a seed flag and its predictions, since a join would
    * only mark rows. The union and the grouping are RDD operations over one
    * scan per table, so the query compiles no class per union child and
    * none for the grouping, and truth and seeds go through one projection.
    */
  private def scores(truth: DataFrame, seeds: DataFrame, predictions: DataFrame, predicted: Seq[Column]): Seq[Double] = {
    val n = predicted.length
    type Marks = (Int, Boolean, Array[Int]) // truth class or −1, seed flag, predictions or null
    def labels(df: DataFrame) = df.select(col("node"), col("cls").cast("int")).rdd.map(r => r.getLong(0) -> r.getInt(1))
    val preds = predictions.select(col("node") +: predicted.map(coalesce(_, lit(0)).cast("int")): _*).rdd
      .map(r => r.getLong(0) -> ((-1, false, Array.tabulate(n)(i => r.getInt(i + 1))): Marks))
    val byNode = truth.sparkSession.sparkContext.union(
        labels(truth).mapValues(c => (c, false, null): Marks),
        labels(seeds).mapValues(_ => (-1, true, null): Marks),
        preds)
      .reduceByKey((u: Marks, v: Marks) => (math.max(u._1, v._1), u._2 || v._2, if (u._3 != null) u._3 else v._3))
    // Per prediction column its hits, then the number of scored nodes.
    val counts = byNode.values
      .collect { case (t, false, p) if t >= 0 => Array.tabulate(n)(i => if ((if (p == null) 0 else p(i)) == t) 1L else 0L) :+ 1L }
      .fold(new Array[Long](n + 1))((u, v) => Array.tabulate(n + 1)(i => u(i) + v(i)))
    require(counts(n) > 0, "nothing to score: every node of truth is a seed")
    (0 until n).map(i => counts(i).toDouble / counts(n))
  }

  /** Label with LinBP from ``seeds`` under every H of ``hs`` in one batched
    * run ([[LinBP.runMany]]), then score each H in one query against the
    * (node, cls) rows of ``truth`` whose node is not a seed: one accuracy
    * per H.
    */
  def endToEnd(
      g: SparseGraph,
      truth: DataFrame,
      seeds: DataFrame,
      hs: Seq[Dense],
      iterations: Int = LinBP.DefaultIterations,
      s: Double = LinBP.DefaultS,
      rhoW: Option[Double] = None): Seq[Double] = {
    val k = hs.head.rows
    val f = LinBP.runMany(g, seeds, hs, iterations, s, rhoW)
    scores(truth, seeds, f, hs.indices.map(i => GraphOps.argmax(GraphOps.values(k, LinBP.block(i)))))
  }

  /** Score an arbitrary belief matrix (for the homophily baselines). */
  def scoreBeliefs(beliefs: DataFrame, truth: DataFrame, seeds: DataFrame): Double =
    accuracyOf(GraphOps.argmaxLabels(beliefs), truth, seeds)
}
