package repro.testutil

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{GraphOps, SparseGraph}

/** Helpers to lift small driver-side graphs into the distributed layer. */
object LocalGraphs {

  /** SparseGraph from an undirected edge list. */
  def graph(spark: SparkSession, n: Int, undirected: Seq[(Int, Int)]): SparseGraph = {
    import spark.implicits._
    GraphOps.fromUndirected(
      spark, n, undirected.map { case (a, b) => (a.toLong, b.toLong) }.toDF("src", "dst"))
  }

  /** Labels DataFrame (node, cls) from a map. */
  def labels(spark: SparkSession, m: Map[Int, Int]): DataFrame = {
    import spark.implicits._
    m.toSeq.map { case (node, cls) => (node.toLong, cls) }.toDF("node", "cls")
  }
}
