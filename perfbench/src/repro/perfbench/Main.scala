package repro.perfbench

import java.nio.file.Paths
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession

/** Benchmark entry point. One run: generate the workload's inputs from the seed,
  * set up (session and preparation several times, taking the median, then
  * a few warm-up jobs), then run jobs in a closed loop (one client, one job at a time)
  * for the given seconds, checking every result. The last stdout line is
  * the result JSON; `--trace 1` reports per-layer metrics instead of the
  * end-to-end ones.
  *
  * Launched by `perfbench/run.py`, which builds the program and this
  * package and pins the JVM and Spark master.
  */
object Main {

  val EndToEnd: Seq[String] = Seq("job_s", "setup_s", "heap_live_peak_mb", "ok_frac")

  private val MinerMetrics = Seq("s", "l1.s", "l2.s", "lk.s", "candidates", "nodes", "pruned_nodes",
    "patterns", "max_level", "structure_mb", "yield")

  val PerLayer: Seq[String] =
    Seq("data.read.s", "data.symbolize.s", "data.instances.s", "data.instances.rows",
      "data.instances.shuffle_mb", "data.instances.stages", "data.to_local.s", "data.to_symbolic.s",
      "mi.graph.s", "mi.graph.pairs", "mi.graph.edges") ++
      Seq("core.htpgm", "core.ahtpgm").flatMap(p => MinerMetrics.map(m => s"$p.$m")) ++
      Seq("s", "jobs", "stages", "tasks", "shuffle_read_mb", "shuffle_write_mb", "task_run_s",
        "busy_frac", "cached_mb_after").map(m => s"spark.mine.$m") ++
      Seq("job", "data", "mi", "core", "spark").flatMap(l =>
        Seq("gc_s", "gc_count", "cpu_s", "cpu_util").map(m => s"jvm.$l.$m")) ++
      Seq("jobs", "job_s", "untraced_job_s", "overhead_frac", "unaccounted_s", "unaccounted_frac")
        .map(m => s"trace.$m")

  def unit(metric: String): String = metric match {
    case m if m.endsWith("_mb") || m.endsWith("_mb_after") => "MB"
    case m if m.endsWith("frac") || m.endsWith(".yield") => "frac"
    case m if m.endsWith("cpu_util") => "cores"
    case m if m.endsWith(".s") || m.endsWith("_s") => "s"
    case _ => "count"
  }

  final case class Opts(workload: String = "", seed: Long = 1L, seconds: Double = 10.0,
                        trace: Boolean = false, tiny: Boolean = false, corrupt: Corrupt = Corrupt.Off,
                        setups: Int = 3, cores: Int = 1, work: String = ".bench_build",
                        commit: String = "unknown", selfTest: Boolean = false, train: Boolean = false,
                        declared: Seq[String] = Nil)

  final case class Result(attempted: Int, failed: Int, metrics: Seq[(String, Double)]) {
    def correct: Boolean = failed == 0
    def json: String = Json.obj(Seq(
      "correct" -> correct.toString, "attempted" -> Json.num(attempted), "failed" -> Json.num(failed),
      "metrics" -> Json.obj(metrics.map { case (k, v) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit(k))))
      })))
  }

  /** A job exceeding this wall time counts as failed. */
  val JobTimeoutS = 60.0

  def main(args: Array[String]): Unit = {
    val code = try {
      val o = parse(args.toList, Opts())
      if (o.selfTest) SelfTest.run(o)
      else if (o.train)
        Bench.Names.foreach(w => run(o.copy(workload = w, tiny = true, setups = 1, seconds = 0)))
      else println(run(o).json)
      0
    } catch {
      case NonFatal(e) => e.printStackTrace(); 1
    }
    sys.exit(code)
  }

  @annotation.tailrec
  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil =>
      require(o.selfTest || o.train || Bench.Names.contains(o.workload), s"--workload must be one of ${Bench.Names.mkString(", ")}")
      o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case "--cores" :: v :: rest => parse(rest, o.copy(cores = v.toInt))
    case "--work" :: v :: rest => parse(rest, o.copy(work = v))
    case "--commit" :: v :: rest => parse(rest, o.copy(commit = v))
    case "--train" :: rest => parse(rest, o.copy(train = true))
    case "--self-test" :: v :: rest => parse(rest, o.copy(selfTest = true, declared = v.split(',').toSeq))
    case other :: _ => throw new IllegalArgumentException(s"unknown argument $other")
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private final case class JobRecord(id: String, traced: Boolean, wallS: Double,
                                     fromMs: Long, toMs: Long, out: JobOut)

  def run(o: Opts): Result = {
    val bench = Bench(o.workload, o.tiny)
    val raw = bench.generate(o.seed)
    bench.inputPath = Paths.get(o.work, "inputs", s"${bench.name}-seed${o.seed}").toAbsolutePath.toString
    println("# perfbench " + Json.obj(Seq(
      "workload" -> Json.str(bench.name), "seed" -> Json.num(o.seed),
      "sequences" -> Json.num(bench.seqs), "series" -> Json.num(bench.series),
      "input_rows" -> Json.num(raw.count), "input_sha256" -> Json.str(raw.sha256),
      "nproc" -> Json.num(Runtime.getRuntime.availableProcessors), "spark_cores" -> Json.num(o.cores),
      "heap_max_mb" -> Json.num(Jvm.heapMaxMb), "commit" -> Json.str(o.commit),
      "trace" -> o.trace.toString)))

    val tracer = new Tracer(o.trace)
    val untraced = new Tracer(false)
    var spark: SparkSession = null
    try {
      // ---- set-up: session and preparation several times (input generation
      // and references excluded), then the workload's warm-up jobs
      val setups = (0 until o.setups).map { rep =>
        if (spark != null) spark.stop()
        val id = s"setup$rep"
        val out = new JobOut
        val (_, session) = Bench.timed {
          spark = JobSession.build(s"perfbench-${bench.name}")
          tracer.attach(spark.sparkContext)
        }
        val inputs = if (rep == 0) Bench.timed(raw.writeParquet(spark, bench.inputPath, o.cores))._2 else 0.0
        val prepare = Bench.timed(bench.prepare(spark, tracer, id, out))._2
        val reference = if (rep == 0) Bench.timed(bench.reference())._2 else 0.0
        System.err.println(f"# perfbench $id: session $session%.2f s, prepare $prepare%.2f s; " +
          f"untimed: inputs $inputs%.2f s, reference $reference%.2f s")
        (session + prepare, out)
      }
      val warmupS = (0 until bench.warmups).map { w =>
        Bench.timed {
          bench.isolate(spark)
          bench.job(spark, untraced, s"warmup$w", new JobOut, Corrupt.Off)
        }._2
      }
      System.err.println(s"# perfbench warm-up jobs ${warmupS.map(s => f"$s%.2f").mkString(", ")} s")

      // ---- timed jobs, closed loop
      val records = mutable.ArrayBuffer.empty[JobRecord]
      val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
      var i = 0
      val minJobs = if (o.trace) 2 else 1 // a traced run needs a traced and an untraced job
      while (i < minJobs || System.nanoTime() < deadline) {
        bench.isolate(spark)
        System.gc()
        val traced = o.trace && i % 2 == 1
        val t = if (traced) tracer else untraced
        val id = s"job$i"
        val out = new JobOut
        val from = Jvm.uptimeMs
        val t0 = System.nanoTime()
        try t.span(id, "job")(bench.job(spark, t, id, out, o.corrupt))
        catch { case NonFatal(e) => out.problems += s"threw ${e.getClass.getName}: ${e.getMessage}" }
        val wall = (System.nanoTime() - t0) / 1e9
        val to = Jvm.uptimeMs
        out.check(wall <= JobTimeoutS, f"took $wall%.1f s, over the $JobTimeoutS%.0f s limit")
        System.err.println(f"# perfbench $id${if (traced) " (traced)" else ""}: $wall%.3f s")
        records += JobRecord(id, traced, wall, from, to, out)
        if (traced) out.probes.foreach(_())
        out.problems.foreach(p => System.err.println(s"perfbench: $id failed: $p"))
        i += 1
      }
      val failed = records.count(_.out.problems.nonEmpty)

      val metrics =
        if (!o.trace) {
          val peaks = records.flatMap(r => Jvm.heapAfterGcPeakMb(r.fromMs, r.toMs))
          Seq(
            "job_s" -> median(records.map(_.wallS).toSeq),
            "setup_s" -> (median(setups.map(_._1)) + warmupS.sum),
            // no collection during any job: all that is known is the heap size
            "heap_live_peak_mb" -> (if (peaks.isEmpty) Jvm.heapMaxMb else peaks.max),
            "ok_frac" -> (records.size - failed).toDouble / records.size)
        } else {
          tracer.counters.settle()
          tracer.write(Paths.get(o.work, "traces", s"${bench.name}-seed${o.seed}.jsonl"))
          layerMetrics(tracer, o.cores, records.toSeq, setups.map(_._2))
        }
      Result(records.size, failed, metrics)
    } finally {
      if (spark != null) spark.stop()
    }
  }

  /** Per-layer metrics of a traced run: for each metric, the median over
    * traced jobs; a layer that only runs in set-up reports the median over
    * set-ups; a layer the workload never runs reports 0.
    */
  private def layerMetrics(tracer: Tracer, cores: Int, records: Seq[JobRecord],
                           setups: Seq[JobOut]): Seq[(String, Double)] = {
    val traced = records.filter(_.traced)
    def fromSpans(job: String, out: JobOut): Map[String, Double] = {
      val m = mutable.HashMap.empty[String, Double].withDefaultValue(0.0)
      out.counts.foreach { case (k, v) => m(k) += v }
      val spans = tracer.spans.filter(_.job == job)
      val wallByLayer = mutable.HashMap.empty[String, Double].withDefaultValue(0.0)
      for (s <- spans) {
        val layer = if (s.name == "job") "job" else s.layer
        if (s.name != "job" && layer != "bench") m(s"${s.name}.s") += s.seconds
        m(s"jvm.$layer.gc_s") += s.gcMs / 1000.0
        m(s"jvm.$layer.gc_count") += s.gcCount
        m(s"jvm.$layer.cpu_s") += s.cpuNs / 1e9
        wallByLayer(layer) += s.seconds
        for (c <- tracer.counters.get(s.group)) s.name match {
          case "data.instances" =>
            m("data.instances.stages") += c.stages
            m("data.instances.shuffle_mb") += c.shuffleWriteBytes / 1048576.0
          case "spark.mine" =>
            m("spark.mine.jobs") += c.jobs
            m("spark.mine.stages") += c.stages
            m("spark.mine.tasks") += c.tasks
            m("spark.mine.shuffle_read_mb") += c.shuffleReadBytes / 1048576.0
            m("spark.mine.shuffle_write_mb") += c.shuffleWriteBytes / 1048576.0
            m("spark.mine.task_run_s") += c.taskRunMs / 1000.0
          case _ =>
        }
      }
      for ((layer, wall) <- wallByLayer if wall > 0)
        m(s"jvm.$layer.cpu_util") = m(s"jvm.$layer.cpu_s") / wall
      if (m.contains("spark.mine.s"))
        m("spark.mine.busy_frac") = m("spark.mine.task_run_s") / (m("spark.mine.s") * cores)
      for (p <- Seq("core.htpgm", "core.ahtpgm") if m.contains(s"$p.candidates"))
        m(s"$p.yield") = if (m(s"$p.candidates") == 0) 0.0 else m(s"$p.patterns") / m(s"$p.candidates")
      spans.find(_.name == "job").foreach { root =>
        val children = spans.filter(_.parent == root.id).map(_.seconds).sum
        m("trace.unaccounted_s") = root.seconds - children
        m("trace.unaccounted_frac") = (root.seconds - children) / root.seconds
      }
      m.toMap
    }
    val jobMaps = traced.map(r => fromSpans(r.id, r.out))
    val setupMaps = setups.indices.map(i => fromSpans(s"setup$i", setups(i)))
    def pick(k: String): Double = {
      val inJobs = jobMaps.flatMap(_.get(k))
      lazy val inSetups = setupMaps.flatMap(_.get(k))
      if (inJobs.nonEmpty) median(inJobs) else if (inSetups.nonEmpty) median(inSetups) else 0.0
    }
    val tracedS = traced.map(_.wallS)
    val untracedS = records.filterNot(_.traced).map(_.wallS)
    val trace = Map(
      "trace.jobs" -> traced.size.toDouble,
      "trace.job_s" -> (if (tracedS.isEmpty) 0.0 else median(tracedS)),
      "trace.untraced_job_s" -> median(untracedS),
      "trace.overhead_frac" -> (if (tracedS.isEmpty) 0.0 else median(tracedS) / median(untracedS) - 1))
    PerLayer.map(k => k -> trace.getOrElse(k, pick(k)))
  }
}

/** Checks the benchmark itself at a tiny size: every declared metric is
  * emitted in each mode, clean runs pass, and a result with one pattern
  * dropped or one support changed is counted as a failed job.
  */
object SelfTest {
  def run(o: Main.Opts): Unit = {
    val declared = o.declared.toSet
    val emitted = (Main.EndToEnd ++ Main.PerLayer).map(m => s"$m=${Main.unit(m)}").toSet
    require(declared == emitted, s"declared name=unit pairs not emitted: ${(declared -- emitted).mkString(", ")}; " +
      s"emitted but not declared: ${(emitted -- declared).mkString(", ")}")
    for (w <- Bench.Names) {
      val base = o.copy(workload = w, seed = 7L, seconds = 1.0, tiny = true, setups = 1, selfTest = false)
      val clean = Main.run(base)
      require(clean.correct && clean.metrics.map(_._1) == Main.EndToEnd, s"$w: clean run $clean")
      require(clean.metrics.forall(_._2 > 0), s"$w: an end-to-end metric is 0: $clean")
      val traced = Main.run(base.copy(trace = true))
      require(traced.correct && traced.metrics.map(_._1) == Main.PerLayer, s"$w: traced run $traced")
      for (c <- Seq(Corrupt.Drop, Corrupt.Support)) {
        val bad = Main.run(base.copy(corrupt = c))
        require(!bad.correct && bad.failed == bad.attempted, s"$w: corrupted ($c) run was not failed: $bad")
      }
      println(s"# self-test $w: ok")
    }
    println("self-test passed")
  }
}
