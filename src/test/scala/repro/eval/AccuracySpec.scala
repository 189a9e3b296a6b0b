package repro.eval

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{CompatibilityMatrix, GraphOps, Labels, LinBP}
import repro.linalg.Dense
import repro.testutil.{DenseRef, LocalGraphs, SparkCounters}

class AccuracySpec extends SparkSpec {

  private lazy val labels = LocalGraphs.labels(
    spark, (0 until 100).map(i => i -> (i % 4)).toMap)

  test("sampleSeeds is stratified: each class contributes round(f·n_c) seeds") {
    val seeds = Accuracy.sampleSeeds(labels, 0.2, seed = 1)
    val byCls = seeds.groupBy("cls").agg(count(lit(1))).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(byCls.values.forall(_ == 5L), s"got $byCls") // 25 per class × 0.2
  }

  test("sampleSeeds guarantees at least one seed per class at tiny f") {
    val seeds = Accuracy.sampleSeeds(labels, 0.001, seed = 2)
    assert(seeds.select("cls").distinct().count() == 4)
    assert(seeds.count() == 4)
  }

  test("sampleSeeds is deterministic in the seed and varies across seeds") {
    val a = Accuracy.sampleSeeds(labels, 0.1, seed = 3).collect().toSet
    val b = Accuracy.sampleSeeds(labels, 0.1, seed = 3).collect().toSet
    val c = Accuracy.sampleSeeds(labels, 0.1, seed = 4).collect().toSet
    assert(a == b)
    assert(a != c)
  }

  test("sampleSeeds rejects degenerate fractions") {
    intercept[IllegalArgumentException](Accuracy.sampleSeeds(labels, 0.0))
    intercept[IllegalArgumentException](Accuracy.sampleSeeds(labels, 1.0))
  }

  test("sampleSeeds fails on a null node, a null class or a double node column, naming it") {
    import spark.implicits._
    val bad = Seq(
      Seq((Some(0L), 0), (None, 1)).toDF("node", "cls") -> "node id outside [0,2147483647): null",
      Seq((0L, Some(0)), (1L, None)).toDF("node", "cls") -> "class id outside [0,2147483647): null",
      Seq((0.0, 0), (1.0, 1)).toDF("node", "cls") -> "id column `node` has type double",
      Seq((0L, 0), (-1L, 1)).toDF("node", "cls") -> "node id outside [0,2147483647): -1",
      Seq((0L, 0), (1L, -2)).toDF("node", "cls") -> "class id outside [0,2147483647): -2")
    for ((table, message) <- bad) {
      val e = intercept[IllegalArgumentException](Accuracy.sampleSeeds(table, 0.5))
      assert(e.getMessage.contains(message), e.getMessage)
    }
  }

  /** A class for every node 0..n−1, ``classes(i)`` for node i. */
  private def predict(k: Int, classes: Int*): Labels = Labels(classes.length, k, classes.indices.toArray, classes.toArray)

  test("accuracyOf scores only non-seed nodes") {
    val truth = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 2 -> 0, 3 -> 1))
    val seeds = LocalGraphs.labels(spark, Map(0 -> 0))
    // Predictions: node0 is a seed, node1 right, node2 wrong, node3 wrong.
    val acc = Accuracy.accuracyOf(predict(2, 0, 1, 1, 0), truth, seeds)
    assert(math.abs(acc - 1.0 / 3) < 1e-12)
  }

  test("accuracyOf is 1.0 for perfect predictions") {
    val truth = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 2 -> 2))
    val seeds = LocalGraphs.labels(spark, Map(0 -> 0))
    assert(Accuracy.accuracyOf(predict(3, 0, 1, 2), truth, seeds) == 1.0)
  }

  test("accuracyOf fails, naming the cause, when every node of truth is a seed") {
    val truth = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1))
    val e = intercept[IllegalArgumentException](Accuracy.accuracyOf(predict(2, 0, 1), truth, truth))
    assert(e.getMessage.contains("nothing to score"), e.getMessage)
  }

  test("accuracyOf fails on a truth class id outside [0,k)") {
    val truth = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 2 -> 3))
    val seeds = LocalGraphs.labels(spark, Map(0 -> 0))
    val e = intercept[IllegalArgumentException](Accuracy.accuracyOf(predict(3, 0, 1, 2), truth, seeds))
    assert(e.getMessage.contains("class id outside [0,3): 3"), e.getMessage)
  }

  test("accuracyOf fails on a truth node id outside [0,n)") {
    val truth = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 5 -> 0))
    val seeds = LocalGraphs.labels(spark, Map(0 -> 0))
    val e = intercept[IllegalArgumentException](Accuracy.accuracyOf(predict(3, 0, 1, 2), truth, seeds))
    assert(e.getMessage.contains("node id outside [0,3): 5"), e.getMessage)
  }

  test("measuredGS on a hand-built graph matches hand-computed frequencies") {
    // Triangle 0–1, 1–2, 0–2 with classes 0,0,1:
    // M = [[2,2],[2,0]] → rows [0.5,0.5] and [1.0,0.0].
    val g = LocalGraphs.graph(spark, 3, Seq((0, 1), (1, 2), (0, 2)))
    val l = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 0, 2 -> 1))
    val gs = Accuracy.measuredGS(g, l, 2)
    assert(gs.approxEquals(repro.linalg.Dense.fromRows(Seq(Seq(0.5, 0.5), Seq(1.0, 0.0))), 1e-9))
  }

  test("endToEnd with the gold standard beats endToEnd with a wrong H") {
    import repro.graphgen.{DegreeDist, PlantedGraph}
    val h = CompatibilityMatrix.planted(3, 8.0)
    val gen = PlantedGraph.generate(spark, 1500, 12000,
      Array(1.0 / 3, 1.0 / 3, 1.0 / 3), h, DegreeDist.Uniform, seed = 6)
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.05, seed = 7)
    // A maximally wrong H: homophily where the truth is heterophily.
    val wrong = repro.linalg.Dense.fromRows(Seq(
      Seq(0.8, 0.1, 0.1), Seq(0.1, 0.8, 0.1), Seq(0.1, 0.1, 0.8)))
    val Seq(accGS, accWrong) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(h, wrong))
    assert(accGS > accWrong + 0.2, s"GS=$accGS wrong=$accWrong")
  }

  /** The Spark jobs ``body`` starts. */
  private def jobsOf(body: => Any): Int = SparkCounters.of(spark)(body).jobs

  test("ρ(W) runs once per graph: once g.rho is computed, every endToEnd starts one job per iteration") {
    val n = 40
    val g = LocalGraphs.graph(spark, n, DenseRef.randomEdges(n, 100, seed = 5))
    val truth = LocalGraphs.labels(spark, (0 until n).map(i => i -> i % 3).toMap)
    val seeds = LocalGraphs.labels(spark, (0 until n).filter(_ % 4 == 0).map(i => i -> i % 3).toMap)
    val hs = Seq(CompatibilityMatrix.planted(3, 8.0))
    g.rho
    val first = jobsOf(Accuracy.endToEnd(g, truth, seeds, hs))
    val second = jobsOf(Accuracy.endToEnd(g, truth, seeds, hs))
    assert(first == LinBP.DefaultIterations && second == first, s"first call: $first jobs, second: $second")
  }

  test("accuracyOf over cached truth and seeds starts at most 1 job, with no shuffle stage") {
    val n = 40
    val g = LocalGraphs.graph(spark, n, DenseRef.randomEdges(n, 100, seed = 5))
    val truth = LocalGraphs.labels(spark, (0 until n).map(i => i -> i % 3).toMap).cache()
    val seeds = LocalGraphs.labels(spark, (0 until n).filter(_ % 4 == 0).map(i => i -> i % 3).toMap).cache()
    try {
      truth.count(); seeds.count()
      val preds = GraphOps.argmaxLabels(LinBP.run(g, seeds, CompatibilityMatrix.planted(3, 8.0), rhoW = Some(g.rho)))
      val counts = SparkCounters.of(spark)(Accuracy.accuracyOf(preds, truth, seeds))
      assert(counts.jobs <= 1 && counts.stages == counts.jobs && counts.shuffleWriteBytes == 0, counts.toString)
    } finally { truth.unpersist(); seeds.unpersist() } // later tests build the same tables as local relations
  }

  test("endToEnd with driver-held truth and seeds and a computed g.rho starts one job per iteration") {
    val n = 40
    val g = LocalGraphs.graph(spark, n, DenseRef.randomEdges(n, 100, seed = 5))
    val truth = LocalGraphs.labels(spark, (0 until n).map(i => i -> i % 3).toMap)
    val seeds = LocalGraphs.labels(spark, (0 until n).filter(_ % 4 == 0).map(i => i -> i % 3).toMap)
    val hs = Seq(CompatibilityMatrix.planted(3, 8.0), CompatibilityMatrix.planted(3, 2.0))
    g.rho
    for (iterations <- Seq(1, 4))
      assert(jobsOf(Accuracy.endToEnd(g, truth, seeds, hs, iterations)) == iterations)
  }

  test("endToEnd with no H fails, naming the cause") {
    val g = LocalGraphs.graph(spark, 4, Seq((0, 1), (1, 2), (2, 3)))
    val truth = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 2 -> 0, 3 -> 1))
    val seeds = LocalGraphs.labels(spark, Map(0 -> 0))
    val e = intercept[IllegalArgumentException](Accuracy.endToEnd(g, truth, seeds, Nil))
    assert(e.getMessage.contains("beliefs needs at least one H"), e.getMessage)
  }

  test("the driver argmax agrees with GraphOps.argmaxLabels on tied rows") {
    val f = Dense.fromRows(Seq(
      Seq(0.5, 0.5, 0.0), Seq(0.2, 0.9, 0.9), Seq(-1.0, -1.0, -1.0), Seq(0.3, 0.1, 0.3), Seq(0.0, -0.0, 0.0), Seq(0.1, 0.2, 0.3)))
    val labeled = GraphOps.argmaxLabels(f)
    assert(labeled.classes.toSeq == DenseRef.argmaxRows(f).toSeq)
    // Every node is scored by both entry points; a wrong tie-break would change the count.
    val truth = LocalGraphs.labels(spark, (0 until f.rows).map(i => i -> 0).toMap)
    val seeds = LocalGraphs.labels(spark, Map(5 -> 2))
    val driver = Accuracy.accuracies(GraphOps.collectLabels(truth, f.rows, 3), GraphOps.collectLabels(seeds, f.rows, 3), Seq(f))
    assert(driver == Seq(Accuracy.accuracyOf(labeled, truth, seeds)))
    assert(driver == Seq(4.0 / 5))
  }
}
