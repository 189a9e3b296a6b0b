package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Homophily-assuming SSL baselines (§2.4), used by the paper's sanity
  * check (Fig. 6i): on graphs with arbitrary compatibilities these
  * methods collapse, which is the motivation for compatibility-aware
  * propagation in the first place.
  */
object Baselines {

  /** Harmonic functions method (Zhu et al. [65]): iterate F ← D⁻¹·W·F
    * with labeled nodes clamped to their one-hot rows.
    */
  def harmonic(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      iterations: Int = 20): DataFrame = {
    import GraphOps.{named, scale, values}
    val x = GraphOps.oneHot(seedLabels, k)
    val clamp = x.select(col("node") +: lit(true).as("seed") +: named(values(k), "x"): _*)
    var f = x
    for (_ <- 1 to iterations) {
      f = GraphOps.materialize(GraphOps.multiply(g.edges, f, g.degrees, clamp).select(
        col("node") +: named(values(k, "x").zip(scale(values(k), lit(1.0) / col("deg")))
          .map { case (xj, avg) => when(col("seed"), xj).otherwise(avg) }): _*))
    }
    f
  }

  /** MultiRankWalk (Lin & Cohen [33]): per class c, a random walk with
    * restarts to that class's seeds — F ← ᾱ·U + α·W^col·F with U the
    * column-normalized seed indicator matrix (‖U_:c‖₁ = 1).
    */
  def multiRankWalk(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      alpha: Double = 0.85,
      iterations: Int = 20): DataFrame = {
    import GraphOps.{named, plus, scale, values}
    val cls = GraphOps.checkedClass(col("cls"), k)
    val u = GraphOps.materialize(
      seedLabels
        .join(seedLabels.groupBy("cls").agg(count(lit(1)).as("__cnt")), "cls")
        .select(col("node") +: named((0 until k).map(j => when(cls === j, lit(1.0) / col("__cnt")).otherwise(0.0))): _*))
    val restart = u.select(col("node") +: named(values(k), "u"): _*)
    // F carries each node's degree, so W^col·F scales the sent rows by 1/deg.
    var f = u.join(g.degrees, Seq("node"), "left")
    for (_ <- 1 to iterations) {
      val sent = f.select(col("node") +: named(scale(values(k), lit(1.0) / col("deg"))): _*)
      f = GraphOps.materialize(GraphOps.multiply(g.edges, sent, g.degrees, restart).select(
        (col("node") +: col("deg") +: named(plus(
          scale(values(k, "u").map(coalesce(_, lit(0.0))), lit(1.0 - alpha)), scale(values(k), lit(alpha))))): _*))
    }
    f.drop("deg")
  }
}
