package repro.core

import repro.SparkSpec
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}
import repro.linalg.Dense

class BaselinesSpec extends SparkSpec {

  private val k = 3
  private lazy val balanced = Array.fill(k)(1.0 / k)
  private lazy val homoH = Dense.fromRows(Seq(
    Seq(0.8, 0.1, 0.1), Seq(0.1, 0.8, 0.1), Seq(0.1, 0.1, 0.8)))
  private lazy val heteroH = CompatibilityMatrix.planted(k, 8.0)

  private lazy val homo = PlantedGraph.generate(
    spark, 1500, 12000, balanced, homoH, DegreeDist.Uniform, seed = 41)
  private lazy val hetero = PlantedGraph.generate(
    spark, 1500, 12000, balanced, heteroH, DegreeDist.Uniform, seed = 42)

  test("harmonic functions label a homophilous graph well") {
    val seeds = Accuracy.sampleSeeds(homo.labels, 0.05, seed = 1)
    val f = Baselines.harmonic(homo.graph, seeds, k)
    val acc = Accuracy.accuracyOf(GraphOps.argmaxLabels(f), homo.labels, seeds)
    assert(acc > 0.75, s"harmonic on homophily: $acc")
  }

  test("harmonic functions collapse on a heterophilous graph (Fig. 6i)") {
    val seeds = Accuracy.sampleSeeds(hetero.labels, 0.05, seed = 2)
    val f = Baselines.harmonic(hetero.graph, seeds, k)
    val accHarm = Accuracy.accuracyOf(GraphOps.argmaxLabels(f), hetero.labels, seeds)
    val Seq(accLinBP) = Accuracy.endToEnd(hetero.graph, hetero.labels, seeds, Seq(heteroH))
    assert(accLinBP > accHarm + 0.2,
      s"LinBP+GS ($accLinBP) must dominate harmonic ($accHarm) under heterophily")
  }

  test("harmonic clamps seed labels") {
    val seeds = Accuracy.sampleSeeds(homo.labels, 0.05, seed = 3)
    val f = Baselines.harmonic(homo.graph, seeds, k, iterations = 5)
    val preds = GraphOps.argmaxLabels(f).classes
    val labeled = GraphOps.collectLabels(seeds, homo.graph.n, k)
    val kept = labeled.nodes.indices.count(i => preds(labeled.nodes(i)) == labeled.classes(i))
    assert(kept == labeled.nodes.length, "every seed must keep its own label")
  }

  test("MultiRankWalk labels a homophilous graph well") {
    val seeds = Accuracy.sampleSeeds(homo.labels, 0.05, seed = 4)
    val f = Baselines.multiRankWalk(homo.graph, seeds, k)
    val acc = Accuracy.accuracyOf(GraphOps.argmaxLabels(f), homo.labels, seeds)
    assert(acc > 0.7, s"MRW on homophily: $acc")
  }

  test("MultiRankWalk falls behind LinBP+GS on a heterophilous graph") {
    val seeds = Accuracy.sampleSeeds(hetero.labels, 0.05, seed = 5)
    val f = Baselines.multiRankWalk(hetero.graph, seeds, k)
    val accMRW = Accuracy.accuracyOf(GraphOps.argmaxLabels(f), hetero.labels, seeds)
    val Seq(accLinBP) = Accuracy.endToEnd(hetero.graph, hetero.labels, seeds, Seq(heteroH))
    assert(accLinBP > accMRW + 0.2, s"LinBP $accLinBP vs MRW $accMRW")
  }

  test("an isolated node gets finite beliefs from harmonic and MultiRankWalk") {
    // Nodes 3 and 4 have no edges, and node 3 is a seed: their 1/deg is 0.
    val g = repro.testutil.LocalGraphs.graph(spark, 5, Seq((0, 1), (1, 2)))
    val seeds = repro.testutil.LocalGraphs.labels(spark, Map(0 -> 0, 3 -> 1))
    for (f <- Seq(Baselines.harmonic(g, seeds, 2, iterations = 3), Baselines.multiRankWalk(g, seeds, 2, iterations = 3)))
      assert(f.data.forall(_.isFinite), f.toString)
  }

  test("MultiRankWalk restart vector is per-class normalized") {
    val seeds = LocalSeeds.two(spark)
    val g = repro.testutil.LocalGraphs.graph(spark, 4, Seq((0, 1), (1, 2), (2, 3)))
    val f = Baselines.multiRankWalk(g, seeds, 2, alpha = 0.0, iterations = 1)
    // With alpha=0 the walk never moves: F = U, each class summing to 1.
    val sums = f.colSums
    assert(sums.forall(s => math.abs(s - 1.0) < 1e-9), sums.mkString(", "))
  }
}

private object LocalSeeds {
  def two(spark: org.apache.spark.sql.SparkSession) =
    repro.testutil.LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 0, 3 -> 1))
}
