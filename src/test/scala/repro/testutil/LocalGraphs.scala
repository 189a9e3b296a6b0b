package repro.testutil

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{GraphOps, SparseGraph}
import repro.linalg.Dense

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

  /** Collect a wide DataFrame back to dense for comparison; absent nodes
    * are zero rows.
    */
  def toDense(df: DataFrame, n: Int, k: Int): Dense = {
    val out = Dense.zeros(n, k).data
    df.select(col("node") +: GraphOps.values(k): _*).collect().foreach { r =>
      for (j <- 0 until k) out(r.getLong(0).toInt * k + j) = r.getDouble(j + 1)
    }
    new Dense(n, k, out)
  }
}
