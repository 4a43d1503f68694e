package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** JVM-wide observations the benchmark reads through public management
  * APIs: process CPU time, collector time and count, and the heap in use
  * right after every collection (from GC notifications).
  */
object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  def uptimeMs: Long = ManagementFactory.getRuntimeMXBean.getUptime
  def cpuNs: Long = os.getProcessCpuTime
  def gcMs: Long = gcs.map(_.getCollectionTime).sum
  def gcCount: Long = gcs.map(_.getCollectionCount).sum
  def heapMaxMb: Double = Runtime.getRuntime.maxMemory / 1048576.0

  /** (GC end in JVM uptime ms, heap MB in use after it), in arrival order. */
  private val afterGc = mutable.ArrayBuffer.empty[(Long, Double)]

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val gc = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        val used = gc.getMemoryUsageAfterGc.asScala.collect {
          case (pool, u) if heapPools(pool) => u.getUsed
        }.sum
        afterGc.synchronized(afterGc += ((gc.getEndTime, used / 1048576.0)))
      }
  }
  gcs.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(listener, null, null))

  /** Largest after-GC heap of the collections that ended in `[fromMs, toMs]`. */
  def heapAfterGcPeakMb(fromMs: Long, toMs: Long): Option[Double] =
    afterGc.synchronized(afterGc.collect { case (t, mb) if t >= fromMs && t <= toMs => mb })
      .maxOption
}

/** Sums Spark task and stage counters per job group. The benchmark sets a
  * unique group around each layer call it traces, so counters are
  * attributed to that call however late the listener bus delivers them.
  */
final class GroupCounters extends SparkListener {
  final class Counts {
    var jobs = 0L; var stages = 0L; var tasks = 0L
    var taskRunMs = 0L; var shuffleReadBytes = 0L; var shuffleWriteBytes = 0L
  }
  private val byGroup = mutable.HashMap.empty[String, Counts]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private var started = 0L
  private var ended = 0L
  @volatile private var lastEventMs = System.currentTimeMillis()

  private def touch(): Unit = lastEventMs = System.currentTimeMillis()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    touch(); started += 1
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      byGroup.getOrElseUpdate(g, new Counts).jobs += 1
      e.stageIds.foreach(stageGroup(_) = g)
    }
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { touch(); ended += 1 }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    touch()
    stageGroup.get(e.stageInfo.stageId).foreach(g => byGroup(g).stages += 1)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    touch()
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = byGroup(g)
      c.tasks += 1
      c.taskRunMs += m.executorRunTime
      c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Waits until every job seen has ended and the bus has been quiet for a
    * moment, so that all counters of finished calls have arrived.
    */
  def settle(): Unit = {
    val deadline = System.currentTimeMillis() + 5000
    def quiet = synchronized(started == ended) && System.currentTimeMillis() - lastEventMs > 250
    while (!quiet && System.currentTimeMillis() < deadline) Thread.sleep(20)
  }

  def get(group: String): Option[Counts] = synchronized(byGroup.get(group))
}

/** Spans recorded by the benchmark around its calls into each layer.
  *
  * A span has a name (`layer.call`), a start and end, a parent, and the id
  * of the job it belongs to. With tracing off `span` only runs its body.
  * With tracing on it also records process CPU and GC time over the span
  * and sets a Spark job group so that [[GroupCounters]] can attribute the
  * Spark work done inside it.
  */
final class Tracer(val enabled: Boolean) {
  final case class Span(id: Int, parent: Int, job: String, name: String,
                        startNs: Long, endNs: Long, cpuNs: Long, gcMs: Long, gcCount: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
    def layer: String = name.takeWhile(_ != '.')
    def group: String = s"perfbench-$id"
  }

  val spans = mutable.ArrayBuffer.empty[Span]
  val counters = new GroupCounters
  private var sc: Option[SparkContext] = None
  private var open = List.empty[(Int, String)]
  private var nextId = 0

  /** Attaches the tracer to a (new) Spark context. */
  def attach(context: SparkContext): Unit = if (enabled) {
    context.addSparkListener(counters)
    sc = Some(context)
  }

  def span[T](job: String, name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(-1)
      open ::= ((id, name))
      sc.foreach(_.setJobGroup(s"perfbench-$id", name))
      val (c0, g0, n0, t0) = (Jvm.cpuNs, Jvm.gcMs, Jvm.gcCount, System.nanoTime())
      try body
      finally {
        val t1 = System.nanoTime()
        spans += Span(id, parent, job, name, t0, t1, Jvm.cpuNs - c0, Jvm.gcMs - g0, Jvm.gcCount - n0)
        open = open.tail
        sc.foreach { s =>
          open.headOption match {
            case Some((p, pName)) => s.setJobGroup(s"perfbench-$p", pName)
            case None => s.clearJobGroup()
          }
        }
      }
    }

  /** Writes every span as one JSON line. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      Json.obj(Seq("id" -> Json.num(s.id), "parent" -> Json.num(s.parent), "job" -> Json.str(s.job),
        "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString,
        "cpu_ns" -> s.cpuNs.toString, "gc_ms" -> s.gcMs.toString, "gc_count" -> s.gcCount.toString))
    }
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** Minimal JSON rendering for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"not a JSON number: $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else java.lang.Double.toString(v)
  }
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
