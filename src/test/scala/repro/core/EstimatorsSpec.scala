package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}
import repro.linalg.Dense
import repro.testutil.{DenseRef, SparkDraw}

/** Pure (driver-side) estimator math. */
class EstimatorMathSpec extends AnyFunSuite {

  /** ``total`` seeds spread over ``k`` classes as evenly as they go. */
  private def perClass(k: Int, total: Long): Vector[Long] =
    Vector.tabulate(k)(c => total / k + (if (c < total % k) 1 else 0))

  test("weights are normalized powers of lambda") {
    val w = Estimators.weights(4, 10.0)
    assert(math.abs(w.sum - 1.0) < 1e-12)
    for (i <- 0 until 3) assert(math.abs(w(i + 1) / w(i) - 10.0) < 1e-9)
  }

  test("weights with lambda=1 are uniform") {
    assert(Estimators.weights(5, 1.0).forall(x => math.abs(x - 0.2) < 1e-12))
  }

  test("dceEnergyGrad energy is zero at a perfect fit") {
    val h = CompatibilityMatrix.planted(3, 3.0)
    val targets = (1 to 3).map(l => h.pow(l))
    val (e, g) = Estimators.dceEnergyGrad(targets, Estimators.weights(3, 10.0))(
      CompatibilityMatrix.toFree(h))
    assert(e < 1e-20)
    assert(g.forall(x => math.abs(x) < 1e-9))
  }

  test("dceEnergyGrad gradient matches central finite differences") {
    for (k <- Seq(2, 3, 4); seed <- 1 to 3; lmax <- Seq(1, 3, 5)) {
      val rnd = new scala.util.Random(seed * 100 + k)
      val targets = (1 to lmax).map(_ => DenseRef.random(k, k, rnd.nextLong()).rowNormalized)
      val w = Estimators.weights(lmax, 10.0)
      val fg = Estimators.dceEnergyGrad(targets, w) _
      val h0 = Array.fill(CompatibilityMatrix.numFree(k))(
        1.0 / k + (rnd.nextDouble() - 0.5) * 0.2)
      val (_, grad) = fg(h0)
      val eps = 1e-6
      for (p <- h0.indices) {
        val hp = h0.clone(); hp(p) += eps
        val hm = h0.clone(); hm(p) -= eps
        val fd = (fg(hp)._1 - fg(hm)._1) / (2 * eps)
        assert(math.abs(fd - grad(p)) < 1e-4 * math.max(1.0, math.abs(fd)),
          s"k=$k seed=$seed lmax=$lmax p=$p: fd=$fd grad=${grad(p)}")
      }
    }
  }

  test("DCE on exact targets recovers the planted H") {
    for (k <- Seq(3, 4); hSkew <- Seq(3.0, 8.0)) {
      val h = CompatibilityMatrix.planted(k, hSkew)
      val sk = Sketches(k, 3,
        mFull = (1 to 3).map(l => h.pow(l)),
        mNB = (1 to 3).map(l => h.pow(l)),
        seedsPerClass = perClass(k, 100))
      val res = Estimators.dce(sk, lmax = 3, lambda = 10.0)
      assert(res.h.frobDist(h) < 1e-4, s"k=$k h=$hSkew:\n${res.h}")
    }
  }

  test("MCE equals DCE with lmax=1") {
    val h = CompatibilityMatrix.planted(3, 8.0)
    val noisy = h.zip(DenseRef.random(3, 3, 4).scale(0.05))(_ + _)
    val sk = Sketches(3, 2, mFull = Vector(noisy, h.pow(2)), mNB = Vector(noisy, h.pow(2)),
      seedsPerClass = perClass(3, 100))
    val mceH = Estimators.mce(sk).h
    val dceH = Estimators.dce(sk, lmax = 1, lambda = 1.0).h
    assert(mceH.frobDist(dceH) < 1e-7)
  }

  test("MCE result is always a valid compatibility matrix") {
    for (seed <- 1 to 5) {
      val m = DenseRef.random(3, 3, seed).map(x => x * 50)
      val sk = Sketches(3, 1, Vector(m), Vector(m), perClass(3, 10))
      assert(CompatibilityMatrix.isValid(Estimators.mce(sk).h, 1e-6))
    }
  }

  test("DCEr energy is never worse than single-start DCE") {
    for (seed <- 1 to 3) {
      val rnd = new scala.util.Random(seed)
      val targets = (1 to 3).map(_ => DenseRef.random(3, 3, rnd.nextLong()).rowNormalized)
      val sk = Sketches(3, 3, targets, targets, perClass(3, 50))
      val dce = Estimators.dce(sk, lmax = 3)
      val dcer = Estimators.dcer(sk, lmax = 3, restarts = 8, seed = seed)
      assert(dcer.energy <= dce.energy + 1e-12)
    }
  }

  test("DCEr(restarts=1) is exactly DCE") {
    val targets = (1 to 3).map(l => CompatibilityMatrix.planted(3, 3.0).pow(l))
    val sk = Sketches(3, 3, targets, targets, perClass(3, 50))
    val a = Estimators.dce(sk, lmax = 3)
    val b = Estimators.dcer(sk, lmax = 3, restarts = 1)
    assert(a.h.frobDist(b.h) < 1e-12 && a.energy == b.energy)
  }

  test("even lmax=2 alone admits mirror optima; lmax=3 disambiguates (Fig. 6b)") {
    // For k=2, homophily [[a,b],[b,a]] and heterophily [[b,a],[a,b]] share
    // the same even powers — the paper's reason even ℓmax works poorly.
    val h = CompatibilityMatrix.planted(2, 8.0) // heterophily [[1,8],[8,1]]/9
    val mirror = Dense.fromRows(Seq(Seq(h(0, 1), h(0, 0)), Seq(h(0, 0), h(0, 1))))
    assert(h.pow(2).frobDist(mirror.pow(2)) < 1e-12)
    assert(h.pow(3).frobDist(mirror.pow(3)) > 0.1)
  }
}

/** Estimators over actual distributed sketches. */
class EstimatorsSpec extends SparkSpec {

  private val k = 3
  private lazy val h = CompatibilityMatrix.planted(k, 8.0)
  private lazy val balanced = Array.fill(k)(1.0 / k)
  private lazy val gen = PlantedGraph.generate(
    spark, n = 4000, m = 20000, alpha = balanced, h = h, dist = DegreeDist.Uniform, seed = 17)
  private lazy val gs = Accuracy.measuredGS(gen.graph, gen.labels, k)

  test("MCE recovers GS on a densely labeled graph") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.5, seed = 1)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 1)
    val est = Estimators.mce(sk).h
    assert(est.frobDist(gs) < 0.1, s"gs:\n$gs\nest:\n$est")
  }

  test("LCE recovers the GS *direction* on a densely labeled graph") {
    // The literal LCE objective ‖X−WXH‖² is dominated by its quadratic
    // term, which pulls the estimate toward uniform — but LinBP labeling
    // only uses the centered direction H̃ (Thm. 3.1), and that direction
    // must align with GS. This is why the paper scores LCE by labeling
    // accuracy (Fig. 6f), never by L2 distance (Fig. 6a-e).
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.5, seed = 2)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 2)
    val est = Estimators.lce(sk).h
    val a = CompatibilityMatrix.centered(est)
    val b = CompatibilityMatrix.centered(gs)
    val cos = a.dot(b) / (a.frobNorm * b.frobNorm)
    assert(cos > 0.9, s"centered cosine $cos\ngs:\n$gs\nest:\n$est")
  }

  test("LCE requires lmax >= 2 sketches") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.1, seed = 3)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 1)
    intercept[IllegalArgumentException](Estimators.lce(sk))
  }

  test("DCEr beats MCE under extreme label sparsity (the paper's core claim)") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.005, seed = 4) // ~20 labeled of 4000
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val mceDist = Estimators.mce(sk).h.frobDist(gs)
    val dcerDist = Estimators.dcer(sk, lmax = 5, lambda = 10.0, restarts = 10, seed = 5)
      .h.frobDist(gs)
    assert(dcerDist < mceDist, s"DCEr $dcerDist should beat MCE $mceDist")
    assert(dcerDist < 0.25, s"DCEr dist $dcerDist too large")
  }

  test("DCEr with moderate labels recovers GS closely (single-start DCE can stall — §4.8)") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.05, seed = 6)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val dce = Estimators.dce(sk)
    val dcer = Estimators.dcer(sk, restarts = 10, seed = 60)
    assert(dcer.energy <= dce.energy + 1e-12, "restarts can only improve the energy")
    assert(dcer.h.frobDist(gs) < 0.12, s"gs:\n$gs\nest:\n${dcer.h}")
  }

  test("estimation on sketches is independent of the graph: same sketch, same result") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.05, seed = 7)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val a = Estimators.dcer(sk, restarts = 3, seed = 8).h
    val b = Estimators.dcer(sk, restarts = 3, seed = 8).h
    assert(a.frobDist(b) == 0.0)
  }

  test("concurrent DCEr equals a sequential fold of DCE over the same starts, bit for bit") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.01, seed = 13)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val sequential = Estimators.restartPoints(k, 10, seed = 14).map(s0 => Estimators.dce(sk, init = Some(s0)))
    val best = sequential.minBy(_.energy)
    val dcer = Estimators.dcer(sk, restarts = 10, seed = 14)
    assert(dcer.h == best.h && dcer.energy == best.energy, s"concurrent:\n${dcer.h}\nsequential:\n${best.h}")
    assert(dcer.evals == sequential.map(_.evals).sum)
    assert(dcer.restartEnergies == sequential.map(_.energy))
    assert(dcer.restartSpread == sequential.map(_.energy).max - sequential.map(_.energy).min)
    assert(dcer.gradNorm == best.gradNorm && dcer.converged == best.converged && dcer.iterations == best.iterations)
    assert(dcer.stop == best.stop)
  }

  test("DCEr stops at the precision floor, below the iteration cap, with the same Ĥ") {
    // Before BFGS stopped at the precision floor, 3 of these 10 restarts,
    // the kept one included, ran to the 500-iteration cap at a gradient norm
    // of about 8e-9 and kept this Ĥ.
    val capped = new Dense(3, 3, Array(
      0.081752695396259140, 0.79582167035566680, 0.12242563424807407,
      0.79582167035566680, 0.11585799759242046, 0.088320332051912810,
      0.12242563424807407, 0.088320332051912810, 0.78925403370001330))
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.01, seed = 13)
    val dcer = Estimators.dcer(Sketch.compute(gen.graph, seeds, k, lmax = 5), restarts = 10, seed = 14)
    assert(dcer.h.approxEquals(capped, 1e-8), s"got:\n${dcer.h}")
    assert(dcer.stop.contains(BFGS.Stop.PrecisionFloor) && !dcer.converged && dcer.iterations < 500, dcer.toString)
  }

  private lazy val small = PlantedGraph.generate(spark, 400, 2400, balanced, h,
    DegreeDist.Uniform, seed = 19)
  private lazy val smallSeeds = Accuracy.sampleSeeds(small.labels, 0.15, seed = 9)

  test("Holdout on a small graph finds an H that labels better than uniform") {
    val res = Estimators.holdout(small.graph, smallSeeds, k, b = 1, maxEvals = 25, seed = 10)
    assert(res.energy <= 0.0, "holdout energy is a negative accuracy")
    val Seq(acc) = Accuracy.endToEnd(small.graph, small.labels, smallSeeds, Seq(res.h))
    assert(acc > 1.0 / k, s"holdout-estimated H should beat random labeling, got $acc")
  }

  test("batched Holdout matches one LinBP run and one score per evaluated H") {
    import org.apache.spark.sql.functions.{col, lit}
    val seed = 10L
    val tagged = GraphOps.materialize(smallSeeds.withColumn("__r", SparkDraw.uniform(seed, lit(1), col("node")) < 0.5))
    val (seedPart, holdPart) = (tagged.where(col("__r")).drop("__r"), tagged.where(!col("__r")).drop("__r"))
    def energy(hFree: Array[Double]): Double = {
      val f = LinBP.run(small.graph, seedPart, CompatibilityMatrix.fromFree(hFree, k))
      -Accuracy.accuracyOf(GraphOps.argmaxLabels(f), holdPart, seedPart)
    }
    val ref = NelderMead.minimizeBatch(_.map(energy), CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k)),
      initialStep = 1.0 / (2 * k), maxEvals = 25)
    val res = Estimators.holdout(small.graph, smallSeeds, k, b = 1, maxEvals = 25, seed = seed)
    assert(res.h == CompatibilityMatrix.fromFree(ref.x, k), s"batched:\n${res.h}\nreference:\n${CompatibilityMatrix.fromFree(ref.x, k)}")
    assert(res.energy == ref.value && res.evals == ref.evals, s"$res vs $ref")
  }

  test("Holdout splits seeds sampled under the same seed into two non-empty parts") {
    // The sampled seeds are the nodes with the smallest (seed, node) draws;
    // a split on those same draws would send every seed to Seedᵢ and leave
    // nothing to score, so every H would get energy 0.
    val seeds = Accuracy.sampleSeeds(small.labels, 0.15, seed = 1)
    Seq(0L, 1L).foreach { seed =>
      val res = Estimators.holdout(small.graph, seeds, k, b = 1, maxEvals = 4, seed = seed)
      assert(res.energy < 0.0, s"holdout seed $seed: energy ${res.energy}, the holdout part scored nothing")
    }
  }

  test("Holdout fails clearly when a split leaves its holdout side empty") {
    // One seed, and a split seed that puts it into Seed₁: nothing is left to score.
    val seed = (0L until 100L).find(GraphOps.uniform(_, 1, 0L) < 0.5).get
    val one = repro.testutil.LocalGraphs.labels(spark, Map(0 -> 0))
    val e = intercept[IllegalArgumentException](Estimators.holdout(small.graph, one, k, b = 1, maxEvals = 4, seed = seed))
    assert(e.getMessage.contains("nothing to score"), e.getMessage)
  }

  test("Holdout fails clearly, naming the split, when a split leaves its seed side empty") {
    // One seed, and a split seed that puts it into Holdout₁: no seed is left to label from.
    val seed = (0L until 100L).find(GraphOps.uniform(_, 1, 0L) >= 0.5).get
    val one = repro.testutil.LocalGraphs.labels(spark, Map(0 -> 0))
    val e = intercept[IllegalArgumentException](Estimators.holdout(small.graph, one, k, b = 1, maxEvals = 4, seed = seed))
    assert(e.getMessage.contains("split 1 of 1 has no seeds"), e.getMessage)
  }

  test("Holdout fails clearly on a graph without edges (ρ(W) = 0)") {
    import spark.implicits._
    val empty = GraphOps.fromUndirected(spark, 10, Seq.empty[(Long, Long)].toDF("src", "dst"))
    val seeds = repro.testutil.LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 2 -> 2, 3 -> 0))
    val e = intercept[IllegalArgumentException](Estimators.holdout(empty, seeds, k, maxEvals = 4))
    assert(e.getMessage.contains("ρ(W) = 0"), e.getMessage)
  }

  test("Holdout with fewer than one split fails, naming b") {
    val seeds = repro.testutil.LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 1, 2 -> 2, 3 -> 0))
    for (b <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](Estimators.holdout(small.graph, seeds, k, b = b, maxEvals = 4))
      assert(e.getMessage.contains(s"b >= 1 splits, got b = $b"), e.getMessage)
    }
  }

  test("end-to-end accuracy with DCEr is close to accuracy with GS (Result 2)") {
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.02, seed = 11)
    val sk = Sketch.compute(gen.graph, seeds, k, lmax = 5)
    val est = Estimators.dcer(sk, restarts = 10, seed = 12).h
    val Seq(accGS, accEst) = Accuracy.endToEnd(gen.graph, gen.labels, seeds, Seq(gs, est))
    assert(accEst > accGS - 0.05, s"DCEr acc $accEst vs GS acc $accGS")
  }
}
