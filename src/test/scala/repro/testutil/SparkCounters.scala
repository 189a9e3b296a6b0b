package repro.testutil

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** What Spark ran for a block of driver code, counted by a listener. */
object SparkCounters {

  /** Jobs started, stages completed, shuffle bytes written, SQL
    * executions started (one per Dataset action, each with a plan of its
    * own) and the tasks of the completed stages.
    */
  final case class Counts(jobs: Int, stages: Int, shuffleWriteBytes: Long, sqlExecutions: Int = 0, tasks: Int = 0) {
    def -(o: Counts): Counts =
      Counts(jobs - o.jobs, stages - o.stages, shuffleWriteBytes - o.shuffleWriteBytes, sqlExecutions - o.sqlExecutions, tasks - o.tasks)
  }

  /** The counts of what ``body`` started. A listener sees events in the
    * order they were posted, and a job's stages complete before the action
    * that ran it returns, so a marked job before and after ``body`` bounds
    * them.
    */
  def of(spark: SparkSession)(body: => Any): Counts = {
    val sc = spark.sparkContext
    val marks = new LinkedBlockingQueue[Counts]
    var seen = Counts(0, 0, 0L)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties != null && e.properties.getProperty("SparkCounters.mark") != null) marks.put(seen)
        else seen = seen.copy(jobs = seen.jobs + 1)
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
        val written = Option(e.stageInfo.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
        seen = seen.copy(stages = seen.stages + 1, shuffleWriteBytes = seen.shuffleWriteBytes + written,
          tasks = seen.tasks + e.stageInfo.numTasks)
      }
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => seen = seen.copy(sqlExecutions = seen.sqlExecutions + 1)
        case _ =>
      }
    }
    def mark(): Counts = {
      sc.setLocalProperty("SparkCounters.mark", "1")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty("SparkCounters.mark", null)
      val at = marks.poll(60, TimeUnit.SECONDS)
      assert(at != null, "the listener never saw the marker job")
      at
    }
    sc.addSparkListener(listener)
    try {
      val before = mark()
      body
      mark() - before - Counts(0, 1, 0L, tasks = 1) // the first marker job's own stage
    } finally sc.removeSparkListener(listener)
  }
}
