package repro.eval

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, LinBP, SparseGraph}
import repro.linalg.Dense

/** End-to-end quality assessment (§5, "Quality assessment").
  *
  * Seeds are a stratified random fraction f of nodes (classes sampled in
  * proportion to their frequencies); accuracy is the fraction of the
  * *remaining* nodes that receive their true label.
  */
object Accuracy {

  /** Stratified seed sample: per class, ⌈max(1, round(f·n_c))⌉ nodes
    * chosen uniformly (seeded, deterministic).
    */
  def sampleSeeds(labels: DataFrame, f: Double, seed: Long = 0): DataFrame = {
    require(f > 0 && f < 1, s"seed fraction must be in (0,1), got $f")
    val w = Window.partitionBy("cls").orderBy(rand(seed))
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
  def measuredGS(g: SparseGraph, labels: DataFrame, k: Int): Dense = {
    val x = GraphOps.oneHot(labels, k)
    val n1 = GraphOps.multiply(g.edges, x)
    GraphOps.collapse(labels, n1, k).rowNormalized
  }

  /** Accuracy of predictions over labeled truth, excluding seed nodes.
    * Nodes that never received any belief default to class 0, matching
    * an argmax over an all-zero row.
    */
  def accuracyOf(predictions: DataFrame, truth: DataFrame, seeds: DataFrame): Double =
    scores(nonSeeds(truth, seeds), predictions, Seq(col("cls"))).head

  /** The (node, cls) rows of ``truth`` whose node is not a seed. */
  private def nonSeeds(truth: DataFrame, seeds: DataFrame): DataFrame =
    truth.join(seeds.select("node").withColumnRenamed("node", "__s"), col("node") === col("__s"), "left_anti")

  /** For every prediction column, evaluated over ``predictions`` left-joined
    * on node, the fraction of the (node, cls) rows of ``evalNodes`` that
    * get their true class. One query; a node without a prediction counts
    * as class 0.
    */
  private def scores(evalNodes: DataFrame, predictions: DataFrame, predicted: Seq[Column]): Seq[Double] = {
    val hits = predicted.map(p => avg((coalesce(p, lit(0)) === col("truth")).cast("double")))
    val r = evalNodes
      .withColumnRenamed("cls", "truth")
      .join(predictions.withColumnRenamed("node", "__n"), col("node") === col("__n"), "left")
      .agg(hits.head, hits.tail: _*)
      .first()
    predicted.indices.map(i => if (r.isNullAt(i)) 0.0 else r.getDouble(i))
  }

  /** Label with LinBP under compatibility matrix h, then score against
    * the ground truth on non-seed nodes.
    */
  def endToEnd(
      g: SparseGraph,
      truth: DataFrame,
      seeds: DataFrame,
      h: Dense,
      iterations: Int = LinBP.DefaultIterations,
      s: Double = LinBP.DefaultS,
      rhoW: Option[Double] = None): Double =
    endToEnd(g, truth, seeds, Seq(h), iterations, s, rhoW).head

  /** [[endToEnd]] under every H of ``hs``: one batched LinBP run
    * ([[LinBP.runMany]]) and one scoring query, one accuracy per H.
    */
  def endToEnd(
      g: SparseGraph,
      truth: DataFrame,
      seeds: DataFrame,
      hs: Seq[Dense],
      iterations: Int,
      s: Double,
      rhoW: Option[Double]): Seq[Double] =
    labelAndScore(g, seeds, nonSeeds(truth, seeds), hs, iterations, s, rhoW)

  /** LinBP from ``seeds`` under every H of ``hs`` in one batched run, each
    * block scored on the (node, cls) rows of ``evalNodes`` in one query.
    */
  def labelAndScore(
      g: SparseGraph,
      seeds: DataFrame,
      evalNodes: DataFrame,
      hs: Seq[Dense],
      iterations: Int,
      s: Double,
      rhoW: Option[Double]): Seq[Double] = {
    val k = hs.head.rows
    val f = LinBP.runMany(g, seeds, hs, iterations, s, rhoW)
    scores(evalNodes, f, hs.indices.map(i => GraphOps.argmax(GraphOps.values(k, LinBP.block(i)))))
  }

  /** Score an arbitrary belief matrix (for the homophily baselines). */
  def scoreBeliefs(beliefs: DataFrame, truth: DataFrame, seeds: DataFrame): Double =
    accuracyOf(GraphOps.argmaxLabels(beliefs), truth, seeds)
}
