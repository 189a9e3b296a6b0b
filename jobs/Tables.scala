package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables._

/** spark-submit entrypoint for the evaluation tables (DESIGN.md §4): runs
  * one table and prints it.
  *
  * Usage: Tables <T1..T11> [seed], e.g. `Tables T3 0`. Each table's
  * parameters are constants of its harness, so this runs exactly what its
  * bench suite runs; the seed (default 0) is the only input.
  * `SPARK_MASTER` (default local[*]) and `SPARK_SHUFFLE_PARTITIONS`
  * (default 64) configure the session.
  */
object Tables {

  private val tables: Seq[(String, (SparkSession, Long) => String)] = Seq(
    "T1" -> ((s, seed) => T1RealWorld.format(T1RealWorld.run(s, seed))),
    "T2" -> ((s, seed) => T2Scalability.format(T2Scalability.run(s, seed))),
    "T3" -> ((s, seed) => T3AccuracyVsF.format(T3AccuracyVsF.run(s, seed))),
    "T4" -> ((s, seed) => T4Consistency.format(T4Consistency.run(s, seed))),
    "T5" -> ((s, seed) => T5Factorized.format(T5Factorized.run(s, seed))),
    "T6" -> ((s, seed) => T6Restarts.format(T6Restarts.run(s, seed))),
    "T7" -> ((s, seed) => T7Classes.format(T7Classes.run(s, seed))),
    "T8" -> ((s, seed) => T8Imbalance.format(T8Imbalance.run(s, seed))),
    "T9" -> ((s, seed) => T9Baselines.format(T9Baselines.run(s, seed))),
    "T10" -> ((s, seed) => T10Heuristics.format(T10Heuristics.run(s, seed))),
    "T11" -> ((s, seed) => T11Sensitivity.format(T11Sensitivity.run(s, seed))))

  def main(args: Array[String]): Unit = {
    val (name, run) = args.headOption.filter(_ => args.length <= 2).flatMap(n => tables.find(_._1 == n)).getOrElse {
      System.err.println(s"Usage: Tables <${tables.map(_._1).mkString("|")}> [seed]")
      sys.exit(2)
    }
    val seed = args.lift(1).fold(0L)(_.toLong)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(run(spark, seed)) finally spark.stop()
  }
}
