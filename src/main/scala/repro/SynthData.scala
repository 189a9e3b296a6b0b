package repro

import org.apache.spark.sql.SparkSession

/** Synthetic inputs for the paper's evaluation: partially labeled graphs. */
object SynthData {

  /** A class-balanced graph with the paper's skew-h planted compatibility
    * matrix (§5); the full (n, m, α, H, dist) generator lives in
    * [[repro.graphgen.PlantedGraph]].
    */
  def plantedGraph(
      spark: SparkSession,
      n: Long,
      avgDegree: Double,
      k: Int = 3,
      hSkew: Double = 8.0,
      dist: repro.graphgen.DegreeDist = repro.graphgen.DegreeDist.Uniform,
      seed: Long = 0): repro.graphgen.PlantedGraph.Generated =
    repro.graphgen.PlantedGraph.generate(
      spark, n, math.round(n * avgDegree / 2.0),
      Array.fill(k)(1.0 / k),
      repro.core.CompatibilityMatrix.planted(k, hSkew),
      dist, seed)
}
