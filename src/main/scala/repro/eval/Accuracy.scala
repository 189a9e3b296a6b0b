package repro.eval

import org.apache.spark.sql.DataFrame
import repro.core.{GraphOps, Labels, LinBP, Sketch, SparseGraph}
import repro.linalg.Dense

/** End-to-end quality assessment (§5, "Quality assessment").
  *
  * Seeds are a stratified random fraction f of nodes (classes sampled in
  * proportion to their frequencies); accuracy is the fraction of the
  * *remaining* nodes that receive their true label.
  */
object Accuracy {

  /** Stratified seed sample, as a driver-held (node: Long, cls: Int)
    * table: per class, max(1, round(f·n_c)) nodes, rounded half up, with
    * the smallest draws [[GraphOps.uniform]](seed, node), ties broken by
    * node id, so the sample depends on the seed and the labels, not on how
    * ``labels`` is partitioned. The labels are read by
    * [[GraphOps.collectLabels]] within the widest bounds [[Labels]] holds
    * (n = k = Int.MaxValue), so a null or negative id fails there.
    */
  def sampleSeeds(labels: DataFrame, f: Double, seed: Long = 0): DataFrame = {
    require(f > 0 && f < 1, s"seed fraction must be in (0,1), got $f")
    val read = GraphOps.collectLabels(labels, Int.MaxValue, Int.MaxValue)
    val rows = Array.tabulate(read.nodes.length)(i => (read.nodes(i).toLong, read.classes(i)))
    import Ordering.Double.TotalOrdering
    val seeds = rows.groupBy(_._2).values.flatMap { members =>
      val take = BigDecimal(members.length * f).setScale(0, BigDecimal.RoundingMode.HALF_UP).toInt.max(1)
      members.sortBy { case (node, _) => (GraphOps.uniform(seed, node), node) }.take(take)
    }
    labels.sparkSession.createDataFrame(seeds.toSeq).toDF("node", "cls")
  }

  /** Gold standard: relative label frequencies between neighbors measured
    * on the *fully labeled* graph — the row-normalized M⁽¹⁾ = XᵀWX at
    * f = 1 (§5.3). This is what the paper calls GS for real data.
    */
  def measuredGS(g: SparseGraph, labels: DataFrame, k: Int): Dense =
    Sketch.compute(g, labels, k, 1).mFull(0).rowNormalized

  /** Accuracy of ``predictions`` (one class per node) over the labeled
    * ``truth``, excluding seed nodes. Truth and seeds are read with at most
    * one job ([[GraphOps.collectLabels]]); a node id outside [0, n) or a
    * class id outside [0, k) in either, for the predictions' n and k,
    * fails there.
    */
  def accuracyOf(predictions: Labels, truth: DataFrame, seeds: DataFrame): Double = {
    val Seq(t, s) = GraphOps.collectLabels(Seq(truth, seeds), predictions.n, predictions.k)
    scores(t, s, Seq(predictions)).head
  }

  /** Per belief matrix of ``fs`` (n×k, as [[LinBP.beliefs]] returns them),
    * the fraction of ``truth``'s nodes outside ``seeds`` whose row's argmax
    * ([[GraphOps.argmaxLabels]]) is their class. Driver arithmetic, no job.
    */
  def accuracies(truth: Labels, seeds: Labels, fs: Seq[Dense]): Seq[Double] =
    scores(truth, seeds, fs.map(GraphOps.argmaxLabels))

  /** For every labeling of ``predictions``, each giving every node 0..n−1 a
    * class, the fraction of the ``truth`` rows whose node is not a seed that
    * it gives their class. Fails when no such row is left, where every
    * accuracy would be 0/0.
    */
  private def scores(truth: Labels, seeds: Labels, predictions: Seq[Labels]): Seq[Double] = {
    val isSeed = new Array[Boolean](truth.n.toInt)
    seeds.nodes.foreach(isSeed(_) = true)
    val predicted = predictions.map { p =>
      val byNode = Array.fill(p.n.toInt)(-1)
      for (i <- p.nodes.indices) byNode(p.nodes(i)) = p.classes(i)
      require(!byNode.contains(-1), "predictions must give every node a class")
      byNode
    }
    val hits = new Array[Long](predicted.length)
    var scored = 0L
    for (i <- truth.nodes.indices if !isSeed(truth.nodes(i))) {
      scored += 1
      for (b <- predicted.indices if predicted(b)(truth.nodes(i)) == truth.classes(i)) hits(b) += 1
    }
    require(scored > 0, "nothing to score: every node of truth is a seed")
    hits.toSeq.map(_.toDouble / scored)
  }

  /** Label with LinBP from ``seeds`` under every H of ``hs`` in one batched
    * run ([[LinBP.beliefs]]), then score each H on the driver against the
    * (node, cls) rows of ``truth`` whose node is not a seed: one accuracy
    * per H, with the graph's own ρ(W) ([[SparseGraph.rho]]). An empty
    * ``hs`` fails before any read. Truth and seeds are read with at most
    * one job; a node id outside [0, n) or a class id outside [0, k) in
    * either fails there.
    */
  def endToEnd(
      g: SparseGraph,
      truth: DataFrame,
      seeds: DataFrame,
      hs: Seq[Dense],
      iterations: Int = LinBP.DefaultIterations,
      s: Double = LinBP.DefaultS): Seq[Double] = {
    require(hs.nonEmpty, "beliefs needs at least one H")
    val Seq(t, sd) = GraphOps.collectLabels(Seq(truth, seeds), g.n, hs.head.rows)
    accuracies(t, sd, LinBP.beliefs(g, sd, hs, iterations, s))
  }
}
