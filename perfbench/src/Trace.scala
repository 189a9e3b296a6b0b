package perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

/** One timed region: a layer call, an operation, or a set-up step. */
final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long, startMs: Long, endMs: Long) {
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Spark work attributed to one span. Written by the listener-bus thread. */
final class SpanStats {
  var jobsStarted = 0
  var jobsEnded = 0
  var stages = 0
  var tasks = 0
  var failedTasks = 0
  var runMs = 0L
  var shuffleWrite = 0L
  var shuffleRead = 0L
  var spill = 0L
  val taskIntervals = ArrayBuffer.empty[(Long, Long)] // (launch, finish) epoch ms
}

/** Attributes jobs, stages and tasks to the span id held in the job's
  * local property [[Tracer.Property]] at submission time.
  */
final class SpanListener extends SparkListener {
  private val jobSpan = new ConcurrentHashMap[Int, String]()
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val stats = new ConcurrentHashMap[String, SpanStats]()
  @volatile var fencesSeen = 0

  def statsOf(span: String): SpanStats = stats.computeIfAbsent(span, _ => new SpanStats)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.Property))).foreach { span =>
      jobSpan.put(e.jobId, span)
      e.stageIds.foreach(stageSpan.put(_, span))
      val s = statsOf(span)
      s.synchronized { s.jobsStarted += 1 }
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobSpan.get(e.jobId)).foreach { span =>
      if (span.startsWith(Tracer.FencePrefix)) fencesSeen = span.stripPrefix(Tracer.FencePrefix).toInt
      else { val s = statsOf(span); s.synchronized { s.jobsEnded += 1 } }
    }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageSpan.get(e.stageInfo.stageId)).foreach { span =>
      val s = statsOf(span); s.synchronized { s.stages += 1 }
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageSpan.get(e.stageId)).foreach { span =>
      val s = statsOf(span)
      s.synchronized {
        s.tasks += 1
        if (e.reason != Success) s.failedTasks += 1
        s.taskIntervals += ((e.taskInfo.launchTime, e.taskInfo.finishTime))
        Option(e.taskMetrics).foreach { m =>
          s.runMs += m.executorRunTime
          s.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
          s.shuffleRead += m.shuffleReadMetrics.totalBytesRead
          s.spill += m.diskBytesSpilled
        }
      }
    }
}

/** Spans recorded from the benchmark's own code around each layer call.
  *
  * While a span is open its id sits in a SparkContext local property, so
  * every job the call submits is attributed to it by [[SpanListener]]. When
  * tracing is off, `span` only runs its body.
  */
final class Tracer {
  import Tracer._

  private var sc: SparkContext = _
  private var listener: SpanListener = _
  private var on = false
  private var stack: List[Int] = Nil
  private var nextId = 0
  private var fences = 0
  private var currentOp = -1
  val spans = ArrayBuffer.empty[Span]
  val counts = ArrayBuffer.empty[(Int, String, Double)] // (op, name, value)

  def enabled: Boolean = on

  /** Trace jobs of `context` from now on; spans recorded so far are kept,
    * their Spark counters are not.
    */
  def bind(context: SparkContext): Unit = {
    sc = context
    listener = new SpanListener
    on = false
  }

  def enable(): Unit = if (!on) {
    sc.addSparkListener(listener)
    on = true
  }

  def disable(): Unit = if (on) {
    fence()
    sc.removeSparkListener(listener)
    on = false
  }

  /** Time `body` as span `name`, a child of the innermost open span. */
  def span[T](name: String, op: Int = currentOp)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val prevOp = currentOp
      currentOp = op
      sc.setLocalProperty(Property, id.toString)
      val (t0, ms0) = (System.nanoTime(), System.currentTimeMillis())
      try body
      finally {
        val (t1, ms1) = (System.nanoTime(), System.currentTimeMillis())
        spans += Span(id, name, parent, op, t0, t1, ms0, ms1)
        stack = stack.tail
        currentOp = prevOp
        sc.setLocalProperty(Property, stack.headOption.map(_.toString).orNull)
      }
    }

  /** Record a driver-side count (e.g. optimizer evaluations) for the current op. */
  def count(name: String, value: Double, op: Int = currentOp): Unit = if (enabled) counts += ((op, name, value))

  /** Block until the listener has seen every job submitted so far end:
    * run one marker job and wait for its end event, which the listener bus
    * delivers after all earlier events. Then check that each traced span's
    * jobs all reported their end.
    */
  def fence(timeoutMs: Long = 60000): Unit = if (on) {
    val l = listener
    fences += 1
    val saved = sc.getLocalProperty(Property)
    sc.setLocalProperty(Property, FencePrefix + fences)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(Property, saved)
    val deadline = System.currentTimeMillis() + timeoutMs
    while (l.fencesSeen < fences && System.currentTimeMillis() < deadline) Thread.sleep(1)
    val open = spans.filter { sp => val s = l.statsOf(sp.id.toString); s.synchronized(s.jobsStarted != s.jobsEnded) }
    require(l.fencesSeen >= fences && open.isEmpty,
      s"listener did not report every job end (spans: ${open.map(_.name).mkString(",")})")
  }

  /** Spark counters of span `sp`; the caller must have called `fence()`. */
  def stats(sp: Span): SpanStats = listener.statsOf(sp.id.toString)

  /** Wall time of `sp` not covered by any of its child spans. */
  def selfS(sp: Span): Double =
    sp.wallS - union(spans.filter(_.parent == sp.id).map(c => (c.startNs, c.endNs)).toSeq, sp.startNs, sp.endNs) / 1e9

  /** Wall seconds inside `sp` during which none of its tasks was running. */
  def idleS(sp: Span, s: SpanStats): Double = {
    val intervals = s.synchronized(s.taskIntervals.toList)
    math.max(0.0, sp.wallS - union(intervals, sp.startMs, sp.endMs) / 1e3)
  }

  def writeJson(path: java.nio.file.Path): Unit = {
    val lines = spans.sortBy(_.id).map { sp =>
      s"""{"id":${sp.id},"name":"${sp.name}","parent":${sp.parent},"op":${sp.op},""" +
        s""""start_ns":${sp.startNs},"end_ns":${sp.endNs},"wall_s":${sp.wallS},"self_s":${selfS(sp)}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Tracer {
  val Property = "perfbench.span"
  val FencePrefix = "fence:"

  /** Length of the union of intervals, clipped to [lo, hi]. */
  def union(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    var covered = 0L
    var reach = lo
    for ((a, b) <- intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }.filter(i => i._1 < i._2).sortBy(_._1)) {
      if (b > reach) { covered += b - math.max(a, reach); reach = b }
    }
    covered
  }
}
