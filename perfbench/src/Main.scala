package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths
import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.internal.SQLConf
import repro.core.GraphOps

/** Pipeline benchmark: one workload, one seed, one measured window.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * Set-up (session start, input generation, loading into Spark) runs
  * [[SetupReps]] times; the last session is kept. One warm-up operation
  * follows. Then operations run back to back, each on a fresh graph over
  * the loaded edges, until `seconds` have passed (at least one). Every
  * operation's outputs are checked; a failed check or an exception counts
  * as a failed operation.
  * With `--trace 1`, every second operation is traced and the result line
  * carries per-layer metrics instead of the end-to-end ones.
  *
  * The last line of standard output is the JSON result.
  */
object Main {
  val SetupReps = 3
  val Layers = Seq("load", "rho", "sketch", "holdout", "linbp", "score", "check")
  val DriverLayers = Seq("dcer", "mce", "lce")
  val SparkMetrics = Seq("wall_s", "jobs", "stages", "tasks", "task_s", "idle_s", "util",
    "shuffle_write_mb", "shuffle_read_mb", "spill_mb", "failed_tasks")

  /** Every per-layer metric name with its unit, in output order. */
  val PerLayer: Seq[(String, String)] =
    Layers.flatMap(l => SparkMetrics.map(m => s"$l.$m" -> unitOf(m))) ++
      DriverLayers.map(l => s"$l.wall_s" -> "s") ++
      Seq("dcer.evals" -> "count", "dcer.s_per_eval" -> "s", "dcer.h_l2" -> "frobenius",
        "holdout.evals" -> "count", "holdout.s_per_eval" -> "s", "holdout.h_l2" -> "frobenius",
        "op.wall_s" -> "s", "op.other_s" -> "s", "op.persisted_rdds_left" -> "count", "op.warmup_s" -> "s",
        "op.traced_samples" -> "count", "trace.overhead_s" -> "s")

  def unitOf(metric: String): String = metric match {
    case m if m.endsWith("_s") => "s"
    case m if m.endsWith("_mb") => "MB"
    case "util" => "ratio"
    case _ => "count"
  }

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1")
  }

  def session(cores: Int): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(sys.props("java.io.tmpdir"), "spark-local").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = Workloads.byName(opts.workload)
    val cores = Runtime.getRuntime.availableProcessors

    var attempted = 0
    var failed = 0
    val accuracy = ArrayBuffer.empty[Double] // of every operation that passed its checks

    /** Run one operation; returns its wall seconds. */
    def runOp(ctx: Ctx, id: Int): Double = {
      val before = ctx.spark.sparkContext.getPersistentRDDs.keySet
      val t0 = System.nanoTime()
      val out =
        try Right(ctx.tracer.span("op", id)(w.op(ctx)))
        catch { case e: Exception => Left(e.toString) }
      val dt = (System.nanoTime() - t0) / 1e9
      Console.err.println(f"[perfbench] op $id: $dt%.3f s")
      attempted += 1
      out match {
        case Right(o) if o.failures.isEmpty =>
          accuracy += o.accuracy
          ctx.tracer.count(s"${o.estimator}.h_l2", o.hL2(ctx.gs), id)
          println(f"[perfbench] op $id: accuracy=${o.accuracy}%.6f h_l2=${o.hL2(ctx.gs)}%.6f")
        case Right(o) => failed += 1; Console.err.println(s"[perfbench] op $id failed checks: ${o.failures.mkString("; ")}")
        case Left(e) => failed += 1; Console.err.println(s"[perfbench] op $id threw: $e")
      }
      // Release what localCheckpoint left behind; keep the loaded inputs.
      val left = ctx.spark.sparkContext.getPersistentRDDs.filter { case (rid, _) => !before(rid) }
      left.values.foreach(_.unpersist(blocking = true))
      ctx.tracer.count("op.persisted_rdds_left", left.size, id)
      dt
    }

    // ---- set-up, repeated; the last session stays up ----------------------
    val setupS = ArrayBuffer.empty[Double]
    val setupLoad = ArrayBuffer.empty[Map[String, Double]]
    val fingerprints = ArrayBuffer.empty[String]
    val tracer = new Tracer
    var loaded: (SparkSession, Inputs, DataFrame, DataFrame, DataFrame) = null
    for (rep <- 1 to SetupReps) {
      if (loaded != null) loaded._1.stop()
      val t0 = System.nanoTime()
      val spark = session(cores)
      tracer.bind(spark.sparkContext)
      if (opts.trace) tracer.enable()
      val in = w.inputs(opts.seed)
      val (undirected, truth, seeds) = in.load(spark)
      val g = tracer.span("load", -rep)(GraphOps.fromUndirected(spark, in.n, undirected))
      setupS += (System.nanoTime() - t0) / 1e9
      loaded = (spark, in, g.edges, truth, seeds)
      fingerprints += in.fingerprint
      if (rep == 1) printBox(spark, cores)
      if (opts.trace) { tracer.fence(); setupLoad += layerMetrics(tracer, -rep, cores) }
    }
    val ctx = new Ctx(loaded._1, tracer, loaded._2, loaded._3, loaded._4, loaded._5)
    println(s"[perfbench] workload=${w.name} seed=${opts.seed} inputs: ${fingerprints.head}")
    if (fingerprints.distinct.size != 1) {
      failed += 1
      Console.err.println(s"[perfbench] inputs differ between set-ups: ${fingerprints.distinct.mkString(" | ")}")
    }
    // Warm-up: JIT, and the lazy state a first call forces.
    val warmupS = runOp(ctx, -(SetupReps + 1))

    // ---- measured window -----------------------------------------------------
    val untraced = ArrayBuffer.empty[Double]
    val traced = ArrayBuffer.empty[(Int, Double)]
    val start = System.nanoTime()
    var id = 0
    def measuring = (System.nanoTime() - start) / 1e9 < opts.seconds || (opts.trace && (traced.isEmpty || untraced.isEmpty))
    while (measuring) {
      val trace = opts.trace && id % 2 == 1
      if (trace) tracer.enable() else tracer.disable()
      val dt = runOp(ctx, id)
      if (trace) traced += ((id, dt)) else untraced += dt
      id += 1
    }
    tracer.fence()

    val opS = untraced.toSeq
    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) Seq(
        ("op_s", median(opS), "s"),
        ("setup_s", median(setupS.toSeq), "s"),
        ("accuracy", median(accuracy.toSeq), "ratio"))
      else {
        tracer.writeJson(Paths.get(".bench_build", "trace", s"${w.name}-seed${opts.seed}.jsonl"))
        val perOp = traced.map { case (op, _) => layerMetrics(tracer, op, cores) }
        PerLayer.map { case (name, unit) =>
          val v =
            if (name == "trace.overhead_s") median(traced.map(_._2).toSeq) - median(opS)
            else if (name == "op.traced_samples") traced.size.toDouble
            else if (name == "op.warmup_s") warmupS
            else if (name.startsWith("load.")) median(setupLoad.map(_.getOrElse(name, 0.0)).toSeq)
            else median(perOp.map(_.getOrElse(name, 0.0)).toSeq)
          (name, v, unit)
        }
      }

    val samples = opS.sorted
    println(f"[perfbench] op_s samples (n=${samples.size}): ${samples.map(s => f"$s%.3f").mkString(" ")}")
    println(f"[perfbench] setup_s samples: ${setupS.map(s => f"$s%.3f").mkString(" ")}")
    println(tail(samples).fold(s"[perfbench] op_s_tail: n/a, needs at least 11 samples (n=${samples.size})") {
      case (p, v) => f"[perfbench] op_s_tail p$p = $v%.4f s (n=${samples.size})"
    })

    ctx.spark.stop()
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": ${jsonNum(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }

  /** Highest whole percentile of `sorted` (nearest rank) with at least ten
    * samples above it.
    */
  def tail(sorted: Seq[Double]): Option[(Int, Double)] =
    (99 to 1 by -1).collectFirst {
      case p if sorted.size - math.ceil(p / 100.0 * sorted.size).toInt >= 10 =>
        (p, sorted(math.ceil(p / 100.0 * sorted.size).toInt - 1))
    }

  /** Per-layer metrics of one traced operation (or of set-up rep −op). */
  def layerMetrics(tracer: Tracer, op: Int, cores: Int): Map[String, Double] = {
    val out = LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
    val opSpan = tracer.spans.find(s => s.op == op && s.name == "op")
    for (sp <- tracer.spans if sp.op == op && sp.name != "op") {
      val st = tracer.stats(sp)
      val l = sp.name
      def add(m: String, v: Double): Unit = out(s"$l.$m") += v
      add("wall_s", sp.wallS)
      st.synchronized {
        add("jobs", st.jobsStarted); add("stages", st.stages); add("tasks", st.tasks)
        add("task_s", st.runMs / 1e3); add("failed_tasks", st.failedTasks)
        add("shuffle_write_mb", st.shuffleWrite / 1e6); add("shuffle_read_mb", st.shuffleRead / 1e6)
        add("spill_mb", st.spill / 1e6)
      }
      add("idle_s", tracer.idleS(sp, st))
    }
    for (l <- Layers ++ DriverLayers if out.contains(s"$l.wall_s"))
      out(s"$l.util") = out(s"$l.task_s") / (out(s"$l.wall_s") * cores)
    for ((o, name, v) <- tracer.counts if o == op) out(name) += v
    for (l <- Seq("dcer", "holdout") if out(s"$l.evals") > 0)
      out(s"$l.s_per_eval") = out(s"$l.wall_s") / out(s"$l.evals")
    opSpan.foreach { sp => out("op.wall_s") = sp.wallS; out("op.other_s") = tracer.selfS(sp) }
    out.toMap
  }

  def jsonNum(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  /** Record the box and the Spark configuration with every result. */
  def printBox(spark: SparkSession, cores: Int): Unit = {
    val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    val conf = spark.conf
    println(
      s"""[perfbench] box: {"nproc": $cores, "mem_total_gb": ${f"${os.getTotalMemorySize / 1e9}%.1f"}, """ +
        s""""xmx_gb": ${f"${Runtime.getRuntime.maxMemory / 1e9}%.1f"}, "spark": "${spark.version}", """ +
        s""""master": "${spark.sparkContext.master}", "shuffle_partitions": ${conf.get(SQLConf.SHUFFLE_PARTITIONS.key)}, """ +
        s""""aqe": ${conf.get(SQLConf.ADAPTIVE_EXECUTION_ENABLED.key)}, """ +
        s""""broadcast_threshold": ${conf.get(SQLConf.AUTO_BROADCASTJOIN_THRESHOLD.key)}}""")
  }
}
