package repro.eval

import org.apache.spark.sql.DataFrame
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
  def accuracyOf(predictions: DataFrame, truth: DataFrame, seeds: DataFrame): Double = {
    val evalNodes = truth
      .withColumnRenamed("cls", "truth")
      .join(seeds.select("node").withColumnRenamed("node", "__s"),
            col("node") === col("__s"), "left_anti")
    val r = evalNodes
      .join(predictions.withColumnRenamed("node", "__n"), col("node") === col("__n"), "left")
      .agg(avg((coalesce(col("cls"), lit(0)) === col("truth")).cast("double")))
      .first()
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  /** Label with LinBP under compatibility matrix h, then score against
    * the ground truth on non-seed nodes.
    */
  def endToEnd(
      g: SparseGraph,
      truth: DataFrame,
      seeds: DataFrame,
      h: Dense,
      iterations: Int = 10,
      s: Double = 0.5,
      rhoW: Option[Double] = None): Double = {
    val f = LinBP.run(g, seeds, h, iterations, s, rhoW)
    accuracyOf(GraphOps.argmaxLabels(f), truth, seeds)
  }

  /** Score an arbitrary belief matrix (for the homophily baselines). */
  def scoreBeliefs(beliefs: DataFrame, truth: DataFrame, seeds: DataFrame): Double =
    accuracyOf(GraphOps.argmaxLabels(beliefs), truth, seeds)
}
