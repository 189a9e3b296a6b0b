package repro.graphgen

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{CompatibilityMatrix, Sketch}
import repro.eval.Accuracy

class PlantedGraphSpec extends SparkSpec {

  private lazy val h3 = CompatibilityMatrix.planted(3, 8.0)
  private lazy val balanced = Array(1.0 / 3, 1.0 / 3, 1.0 / 3)
  private lazy val gen = PlantedGraph.generate(
    spark, n = 3000, m = 15000, alpha = balanced, h = h3, dist = DegreeDist.Uniform, seed = 1)

  test("every node gets exactly one label and classes are contiguous with sizes from alpha") {
    assert(gen.labels.count() == 3000)
    assert(gen.classSizes.sum == 3000)
    val byCls = gen.labels.groupBy("cls").agg(count(lit(1)).as("c"), min("node"), max("node"))
      .collect().map(r => r.getInt(0) -> (r.getLong(1), r.getLong(2), r.getLong(3))).toMap
    assert(byCls.keySet == Set(0, 1, 2))
    (0 until 3).foreach(c => assert(byCls(c)._1 == gen.classSizes(c), s"class $c size"))
    // Contiguity: ranges must not overlap.
    assert(byCls(0)._3 < byCls(1)._2 && byCls(1)._3 < byCls(2)._2)
  }

  test("generated edges are symmetric, deduplicated and loop-free") {
    import spark.implicits._
    val e = gen.graph.edges.as[(Long, Long)].collect()
    val set = e.toSet
    assert(e.length == set.size, "duplicates present")
    assert(set.map(_.swap) == set, "not symmetric")
    assert(set.forall { case (a, b) => a != b }, "self loop present")
  }

  test("edge count is close to the requested m (small dedup shortfall allowed)") {
    val m = gen.graph.m
    assert(m <= 15000 && m > 15000 * 0.95, s"m=$m")
  }

  test("node ids stay inside [0, n)") {
    val r = gen.graph.edges.agg(min("src"), max("src")).first()
    assert(r.getLong(0) >= 0 && r.getLong(1) < 3000)
  }

  test("measured GS on a balanced graph is close to the planted H") {
    val gs = Accuracy.measuredGS(gen.graph, gen.labels, 3)
    assert(gs.frobDist(h3) < 0.05, s"planted:\n$h3\nmeasured:\n$gs")
  }

  test("block edge budgets follow alpha-weighted H (checked via class-pair counts)") {
    val m1 = Sketch.compute(gen.graph, gen.labels, 3, 1).mFull(0)
    // With balanced alpha, edge-endpoint mass between (c,d) ∝ H_cd.
    val p = m1.rowNormalized
    for (c <- 0 until 3; d <- 0 until 3) {
      assert(math.abs(p(c, d) - h3(c, d)) < 0.05, s"block ($c,$d): ${p(c, d)} vs ${h3(c, d)}")
    }
  }

  test("power-law degrees are more skewed than uniform degrees") {
    val genPl = PlantedGraph.generate(
      spark, 3000, 15000, balanced, h3, DegreeDist.PowerLaw(0.3), seed = 2)
    def maxDeg(g: repro.core.SparseGraph): Double =
      g.degrees.max
    assert(maxDeg(genPl.graph) > maxDeg(gen.graph) * 1.5,
      s"powerlaw max ${maxDeg(genPl.graph)} vs uniform ${maxDeg(gen.graph)}")
  }

  test("imbalanced alpha yields matching class sizes") {
    val alpha = Array(1.0 / 6, 1.0 / 3, 1.0 / 2)
    val gi = PlantedGraph.generate(spark, 1200, 6000, alpha,
      repro.linalg.Dense.fromRows(Seq(
        Seq(0.2, 0.6, 0.2), Seq(0.6, 0.1, 0.3), Seq(0.2, 0.3, 0.5))),
      DegreeDist.Uniform, seed = 3)
    assert(gi.classSizes.toSeq == Seq(200L, 400L, 600L))
  }

  test("generation is deterministic in the seed") {
    val a = PlantedGraph.generate(spark, 500, 2000, balanced, h3, DegreeDist.Uniform, seed = 9)
    val b = PlantedGraph.generate(spark, 500, 2000, balanced, h3, DegreeDist.Uniform, seed = 9)
    assert(a.graph.edges.collect().toSet == b.graph.edges.collect().toSet)
  }

  test("rejects invalid alpha") {
    intercept[IllegalArgumentException](
      PlantedGraph.generate(spark, 100, 500, Array(0.5, 0.4), h3))
  }

  test("generate builds a balanced skew-h graph") {
    val g = PlantedGraph.generate(spark, 600, 3000, balanced, h3)
    assert(g.labels.count() == 600)
    assert(math.abs(g.graph.m - 3000L) < 300, s"m=${g.graph.m}")
  }

  test("DegreeDist rank stays in range for both families") {
    val rnd = new java.util.SplittableRandom(1)
    val us = Seq(0.0, 1.0 - 1.0 / (1L << 53)) ++ Seq.fill(5000)(rnd.nextDouble())
    for (dist <- Seq[DegreeDist](DegreeDist.Uniform, DegreeDist.PowerLaw(0.3)); size <- Seq(1L, 17L, 1L << 40)) {
      val ranks = us.map(dist.rank(_, size))
      assert(ranks.forall(r => r >= 0 && r < size), s"$dist out of [0, $size)")
      assert(ranks.head == 0 && ranks(1) == size - 1, s"$dist at u = 0 and u → 1: ${ranks.take(2)}")
      if (size == 17) assert(ranks.toSet.size > 10, s"$dist degenerate")
    }
  }

  test("rejects a negative H entry or a class without alpha mass, naming it") {
    val negative = repro.linalg.Dense.fromRows(Seq(Seq(0.5, 0.6, -0.1), Seq(0.6, 0.2, 0.2), Seq(-0.1, 0.2, 0.9)))
    val e = intercept[IllegalArgumentException](PlantedGraph.generate(spark, 300, 1500, balanced, negative))
    assert(e.getMessage.contains("H(0,2) = -0.1"), e.getMessage)
    val a = intercept[IllegalArgumentException](PlantedGraph.generate(spark, 300, 1500, Array(0.5, 0.0, 0.5), h3))
    assert(a.getMessage.contains("alpha(1) = 0.0"), a.getMessage)
  }

  test("two planted graphs and their seed samples keep their pinned fingerprints") {
    import spark.implicits._
    import scala.util.hashing.MurmurHash3
    // (m, an order-free hash of the edge set, an order-free hash of the
    // seeds): any change to a draw, a rank or the sampler's rounding moves it.
    def pinned(gen: PlantedGraph.Generated, f: Double, seed: Long): (Long, Int, Int) = {
      val edges = gen.graph.edges.as[(Long, Long)].collect().filter { case (a, b) => a < b }
      val seeds = Accuracy.sampleSeeds(gen.labels, f, seed).select("node", "cls").as[(Long, Int)].collect()
      (gen.graph.m, MurmurHash3.unorderedHash(edges.toSeq), MurmurHash3.unorderedHash(seeds.toSeq))
    }
    val powerLaw = PlantedGraph.generate(spark, 3000, 15000, balanced, h3, DegreeDist.PowerLaw(0.3), seed = 2)
    val imbalanced = PlantedGraph.generate(spark, 2000, 10000,
      repro.tables.T8Imbalance.PaperAlpha, repro.tables.T8Imbalance.PaperH, DegreeDist.PowerLaw(0.3), seed = 5)
    // 1000 · 0.0025 = 2.5 seeds in the largest class rounds half up, to 3.
    val got = Seq(pinned(powerLaw, 0.05, 4), pinned(imbalanced, 0.0025, 6))
    assert(got == Seq((14919L, 46563970, 901776537), (9942L, -136934441, 596545141)), got.mkString(", "))
  }
}
