package repro.testutil

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Spark's own hash of a key, as the reference for `GraphOps.uniform`. */
object SparkDraw {

  /** The top 53 bits of Spark's xxhash64(seed, key…), times 2⁻⁵³. */
  def uniform(seed: Long, key: Column*): Column =
    shiftrightunsigned(xxhash64(lit(seed) +: key: _*), 11).cast("double") * lit(1.0 / (1L << 53))
}
