package repro.perfbench

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** What Spark did while one call ran, as seen by a [[Tracer]].
  *
  * @param maxTaskShare the largest share of a stage's input records read by
  *                     one of its tasks, over the stages that read at least a
  *                     tenth as many records as the call's largest stage;
  *                     1.0 means some heavy stage ran on a single partition
  */
final case class Span(wallS: Double, stages: Int, tasks: Int, taskS: Double, shuffleMb: Double, maxTaskShare: Double)

/** A SparkListener the benchmark registers itself to time calls from outside
  * and count the stages, tasks and shuffle bytes each call causes. Calls run
  * one at a time on the driver, so every event between two drains of the
  * listener bus belongs to the call in between.
  */
final class Tracer(spark: SparkSession) extends SparkListener {
  private val sc = spark.sparkContext
  private var stages = 0
  private var tasks = 0
  private var taskMs = 0L
  private var shuffleBytes = 0L
  // stage id -> (records read by all its tasks, by its largest task)
  private val records = mutable.Map.empty[Int, (Long, Long)]

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    Option(e.taskMetrics).foreach { m =>
      taskMs += m.executorRunTime
      shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      val n = m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
      val (sum, max) = records.getOrElse(e.stageId, (0L, 0L))
      records(e.stageId) = (sum + n, math.max(max, n))
    }
  }

  def attach(): Unit = sc.addSparkListener(this)
  def detach(): Unit = sc.removeSparkListener(this)

  /** Run `body` and return what it caused. The listener must be attached. */
  def span[A](body: => A): (A, Span) = {
    ListenerBusAccess.drain(sc)
    synchronized { stages = 0; tasks = 0; taskMs = 0; shuffleBytes = 0; records.clear() }
    val t0 = System.nanoTime()
    val a = body
    val wall = (System.nanoTime() - t0) / 1e9
    ListenerBusAccess.drain(sc)
    synchronized {
      val heaviest = if (records.isEmpty) 0L else records.values.map(_._1).max
      val share = records.values
        .collect { case (sum, max) if sum > 0 && sum * 10 >= heaviest => max.toDouble / sum }
        .maxOption.getOrElse(0.0)
      (a, Span(wall, stages, tasks, taskMs / 1000.0, shuffleBytes / 1e6, share))
    }
  }
}
