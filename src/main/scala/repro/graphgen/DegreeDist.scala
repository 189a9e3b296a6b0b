package repro.graphgen

/** Degree-distribution families for the planted generator (§5).
  *
  * A family maps a uniform draw u ∈ [0,1) to a node *rank* within a class
  * of a given size; endpoints of generated edges are drawn by this
  * inverse-CDF, so a node's expected degree is proportional to its rank
  * weight. ``Uniform`` gives flat degrees; ``PowerLaw(0.3)`` matches the
  * paper's power-law experiments (rank weight ∝ rank^−0.3).
  */
sealed trait DegreeDist {

  /** The rank ∈ [0, classSize) this family draws for ``u``. */
  def rank(u: Double, classSize: Long): Long
}

object DegreeDist {

  case object Uniform extends DegreeDist {
    def rank(u: Double, classSize: Long): Long = math.min(classSize - 1, math.floor(u * classSize).toLong)
  }

  /** Rank weight ∝ (rank+1)^−gamma; inverse CDF of the continuous
    * approximation is rank = classSize · u^(1/(1−gamma)). `StrictMath.pow`
    * gives the same bits on every JVM.
    */
  final case class PowerLaw(gamma: Double = 0.3) extends DegreeDist {
    require(gamma > 0 && gamma < 1, s"need 0 < gamma < 1, got $gamma")
    def rank(u: Double, classSize: Long): Long =
      math.min(classSize - 1, math.floor(StrictMath.pow(u, 1.0 / (1.0 - gamma)) * classSize).toLong)
  }
}
