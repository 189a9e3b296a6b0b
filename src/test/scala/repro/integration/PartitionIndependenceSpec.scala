package repro.integration

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{CompatibilityMatrix, Estimators}
import repro.eval.Accuracy
import repro.graphgen.{DegreeDist, PlantedGraph}
import repro.testutil.SparkCounters

/** A run's result depends only on its inputs and seeds: every random draw
  * (generator endpoints, seed sampling, Holdout splits) is keyed by
  * (seed, row id), so the partitioning, and with it the core count, moves
  * nothing.
  */
class PartitionIndependenceSpec extends SparkSpec {

  private val k = 3
  private lazy val h = CompatibilityMatrix.planted(k, 8.0)
  private lazy val balanced = Array.fill(k)(1.0 / k)

  /** Run ``body`` with the session settings ``conf``, then restore their
    * previous values: the session is shared by every suite.
    */
  private def withConf[T](conf: (String, String)*)(body: => T): T = {
    val before = conf.map { case (key, _) => key -> spark.conf.getOption(key) }
    conf.foreach { case (key, value) => spark.conf.set(key, value) }
    try body
    finally before.foreach {
      case (key, Some(value)) => spark.conf.set(key, value)
      case (key, None) => spark.conf.unset(key)
    }
  }

  /** (m, an order-free hash of the directed edge set). */
  private def fingerprint(edges: DataFrame): (Long, Long) = {
    val r = edges.agg(count(lit(1)), bit_xor(xxhash64(col("src"), col("dst")))).first()
    (r.getLong(0) / 2, r.getLong(1))
  }

  /** The fingerprint of a generated graph's edges, and the tasks its
    * generation ran.
    */
  private def generated(): ((Long, Long), Int) = {
    lazy val gen = PlantedGraph.generate(spark, n = 600, m = 2400, alpha = balanced, h = h, dist = DegreeDist.PowerLaw(0.3), seed = 3)
    val tasks = SparkCounters.of(spark)(gen).tasks
    (fingerprint(gen.graph.edges), tasks)
  }

  test("PlantedGraph.generate draws the same edge set at any parallelism") {
    val leaf = Seq("1", "3", "8").map(p => p -> withConf("spark.sql.leafNodeDefaultParallelism" -> p)(generated()))
    val runs = leaf :+ ("8 shuffle partitions" -> withConf("spark.sql.shuffle.partitions" -> "8")(generated()))
    assert(runs.map(_._2._1).distinct.size == 1, runs.mkString(", "))
    // The setting splits the generator's ids, so each run drew under its own partitioning.
    assert(leaf.map(_._2._2).distinct.size == leaf.size, leaf.mkString(", "))
  }

  test("sampleSeeds picks the same seeds however the labels are partitioned") {
    val labels = PlantedGraph.generate(spark, n = 600, m = 2400, alpha = balanced, h = h, seed = 4).labels
    def seeds(parts: Int): Seq[(Long, Int)] = {
      import spark.implicits._
      Accuracy.sampleSeeds(labels.repartition(parts), 0.05, seed = 5)
        .select("node", "cls").as[(Long, Int)].collect().toSeq.sorted
    }
    val one = seeds(1)
    assert(one.size == 30, s"${one.size} seeds")
    assert(seeds(5) == one)
  }

  test("Holdout returns the same H and energy however its seeds are partitioned") {
    val gen = PlantedGraph.generate(spark, n = 400, m = 2400, alpha = balanced, h = h, seed = 19)
    val seeds = Accuracy.sampleSeeds(gen.labels, 0.15, seed = 9)
    def run(parts: Int): Estimators.EstimationResult =
      Estimators.holdout(gen.graph, seeds.repartition(parts), k, b = 1, maxEvals = 8, seed = 10)
    val (one, three) = (run(1), run(3))
    assert(one.h == three.h, s"1 partition:\n${one.h}\n3 partitions:\n${three.h}")
    assert(one.energy == three.energy && one.evals == three.evals, s"$one vs $three")
  }
}
