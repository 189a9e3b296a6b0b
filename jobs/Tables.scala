package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables._

/** spark-submit entrypoint for the evaluation tables (DESIGN.md §4): runs
  * one table and prints it.
  *
  * Usage: Tables <table> [args…], e.g. `Tables T3 10000 0`; every
  * positional argument is optional and listed per table by running with no
  * arguments. `SPARK_MASTER` (default local[*]) and
  * `SPARK_SHUFFLE_PARTITIONS` (default 64) configure the session.
  */
object Tables {

  /** Positional arguments after the table name, each with its default. */
  private final class Args(a: Seq[String]) {
    def long(i: Int, default: Long): Long = a.lift(i).fold(default)(_.toLong)
    def double(i: Int, default: Double): Double = a.lift(i).fold(default)(_.toDouble)
    def int(i: Int, default: Int): Int = a.lift(i).fold(default)(_.toInt)
  }

  private final case class Table(args: String, run: (SparkSession, Args) => String)

  private val tables: Seq[(String, Table)] = Seq(
    "T1" -> Table("[maxEdges] [f] [seed]", (s, a) => T1RealWorld.format(
      T1RealWorld.run(s, maxEdges = a.long(0, 150000L), f = a.double(1, 0.01), seed = a.long(2, 0L)))),
    "T2" -> Table("[maxN] [f] [seed]", (s, a) => T2Scalability.format(
      T2Scalability.run(s, sizes = Seq(2000L, 8000L, 32000L, 100000L, 300000L).filter(_ <= a.long(0, 100000L)),
        f = a.double(1, 0.01), seed = a.long(2, 0L)))),
    "T3" -> Table("[n] [seed]", (s, a) => T3AccuracyVsF.format(
      T3AccuracyVsF.run(s, n = a.long(0, 10000L), seed = a.long(1, 0L)))),
    "T4" -> Table("[n] [f] [seed]", (s, a) => T4Consistency.format(
      T4Consistency.run(s, n = a.long(0, 10000L), f = a.double(1, 0.1), seed = a.long(2, 0L)))),
    "T5" -> Table("[n] [explicitMaxL] [seed]", (s, a) => T5Factorized.format(
      T5Factorized.run(s, n = a.long(0, 3000L), explicitMaxL = a.int(1, 4), seed = a.long(2, 0L)))),
    "T6" -> Table("[n] [f] [seed]", (s, a) => T6Restarts.format(
      T6Restarts.run(s, n = a.long(0, 10000L), f = a.double(1, 0.003), seed = a.long(2, 0L)))),
    "T7" -> Table("[n] [f] [seed]", (s, a) => T7Classes.format(
      T7Classes.run(s, n = a.long(0, 10000L), f = a.double(1, 0.05), seed = a.long(2, 0L)))),
    "T8" -> Table("[n] [seed]", (s, a) => T8Imbalance.format(
      T8Imbalance.run(s, n = a.long(0, 10000L), seed = a.long(1, 0L)))),
    "T9" -> Table("[n] [seed]", (s, a) => T9Baselines.format(
      T9Baselines.run(s, n = a.long(0, 10000L), seed = a.long(1, 0L)))),
    "T10" -> Table("[maxEdges] [f] [seed]", (s, a) => T10Heuristics.format(
      T10Heuristics.run(s, maxEdges = a.long(0, 100000L), f = a.double(1, 0.01), seed = a.long(2, 0L)))),
    "T11" -> Table("[n] [f] [seed]", (s, a) => T11Sensitivity.format(
      T11Sensitivity.run(s, n = a.long(0, 10000L), f = a.double(1, 0.01), seed = a.long(2, 0L)))))

  def main(args: Array[String]): Unit = {
    val (name, table) = args.headOption.flatMap(n => tables.find(_._1 == n)).getOrElse {
      System.err.println(("Usage: Tables <table> [args…]" +: tables.map { case (n, t) => s"  $n ${t.args}" })
        .mkString("\n"))
      sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(table.run(spark, new Args(args.toSeq.tail))) finally spark.stop()
  }
}
