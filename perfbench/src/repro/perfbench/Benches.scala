package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{HDFS, TPMiner}
import repro.core.{AHTPGM, HTPGM, MiningConfig, MiningResult, Pattern, SequenceDB}
import repro.data.{SequenceBuilder, Symbolizer}
import repro.mi.{CorrelationGraph, SymbolicDB}
import repro.spark.SparkHTPGM

/** What one job (or one set-up) reports: the problems its checks found,
  * layer counts, and level probes to run once the job's timing has ended.
  */
final class JobOut {
  val problems = mutable.ArrayBuffer.empty[String]
  val counts = mutable.LinkedHashMap.empty[String, Double]
  val probes = mutable.ArrayBuffer.empty[() => Unit]

  def add(name: String, v: Double): Unit = counts(name) = counts.getOrElse(name, 0.0) + v
  def max(name: String, v: Double): Unit = counts(name) = math.max(counts.getOrElse(name, v), v)
  def check(ok: Boolean, what: => String): Unit = if (!ok) problems += what
}

/** How a self-test corrupts the result a job checks. */
sealed trait Corrupt { def apply(ps: Map[Pattern, Int]): Map[Pattern, Int] }
object Corrupt {
  private def victim(ps: Map[Pattern, Int]): Pattern = {
    require(ps.nonEmpty, "nothing to corrupt: the result has no patterns")
    ps.keys.minBy(_.encode.mkString(","))
  }
  case object Off extends Corrupt { def apply(ps: Map[Pattern, Int]) = ps }
  case object Drop extends Corrupt { def apply(ps: Map[Pattern, Int]) = ps - victim(ps) }
  case object Support extends Corrupt {
    def apply(ps: Map[Pattern, Int]) = { val v = victim(ps); ps.updated(v, ps(v) + 1) }
  }
}

/** One workload: its inputs, its set-up by program calls, its job and the
  * job's checks.
  *
  * @param seqs    sequences generated
  * @param series  series per sequence
  * @param warmups untimed jobs before timing, enough for job times to level off
  *                (JIT compilation of the program and of Spark settles over them)
  */
abstract class Bench(val name: String, val seqs: Int, val series: Int, val warmups: Int) {
  import Bench._

  def generate(seed: Long): Inputs.Raw

  /** Workload preparation by program calls; timed as part of set-up. */
  def prepare(spark: SparkSession, t: Tracer, id: String, out: JobOut): Unit

  /** References the jobs are checked against; computed once, untimed. */
  def reference(): Unit

  /** One job, from the prepared input to a checked result. */
  def job(spark: SparkSession, t: Tracer, id: String, out: JobOut, corrupt: Corrupt): Unit

  /** Pass isolation between jobs: drop every cached dataset, including the
    * ones the program leaves behind (the prepared inputs are local).
    */
  def isolate(spark: SparkSession): Unit = spark.catalog.clearCache()

  var inputPath: String = ""

  /** Reads the raw Parquet input and symbolizes it as the workload does. */
  protected def readAndSymbolize(spark: SparkSession, t: Tracer, id: String,
                                 symbolize: DataFrame => DataFrame): DataFrame = {
    val raw = t.span(id, "data.read")(force(t, spark.read.parquet(inputPath)))
    t.span(id, "data.symbolize")(force(t, symbolize(raw)))
  }

  /** `SequenceBuilder.instances`, cached as `Workloads` caches it. */
  protected def instances(t: Tracer, id: String, out: JobOut, sym: DataFrame): DataFrame =
    t.span(id, "data.instances") {
      val inst = SequenceBuilder.instances(sym, Slots.toLong, 0L).cache()
      if (t.enabled) out.add("data.instances.rows", inst.count().toDouble)
      inst
    }

  /** The correlation graph at [[GraphDensity]], as `CorrelationGraph.buildForDensity` builds it. */
  protected def graph(t: Tracer, id: String, out: JobOut, symDb: SymbolicDB, db: SequenceDB): CorrelationGraph = {
    out.check(symDb.series.map(_.name) == db.seriesNames, "graph vertices are not in the DB's series order")
    t.span(id, "mi.graph") {
      val scores = CorrelationGraph.pairScores(symDb)
      val g = CorrelationGraph.fromScores(symDb.series.size, scores,
        CorrelationGraph.muForDensity(scores, GraphDensity))
      out.add("mi.graph.pairs", scores.size)
      out.add("mi.graph.edges", g.edgeCount)
      g
    }
  }

  /** E-HTPGM and A-HTPGM at one cell. When traced, the stats are recorded
    * and L1/L2/Lk times are probed after the job by re-running the miner
    * capped at levels 1 and 2.
    */
  protected def mineBoth(t: Tracer, id: String, out: JobOut, db: SequenceDB, g: CorrelationGraph,
                         cell: (Int, Int)): (MiningResult, MiningResult) = {
    val c = cfg(cell)
    val (e, eS) = timed(t.span(id, "core.htpgm")(HTPGM.mine(db, c)))
    val (a, aS) = timed(t.span(id, "core.ahtpgm")(AHTPGM.mine(db, c, g)))
    if (t.enabled) {
      record(out, "core.htpgm", e)
      record(out, "core.ahtpgm", a)
      out.probes += (() => {
        levels(out, "core.htpgm", eS, m => HTPGM.mine(db, c.copy(maxLevel = m)))
        levels(out, "core.ahtpgm", aS, m => AHTPGM.mine(db, c.copy(maxLevel = m), g))
      })
    }
    (e, a)
  }

  protected def checkSubset(out: JobOut, cell: (Int, Int), e: MiningResult, a: MiningResult): Unit =
    out.check(a.patterns.forall { case (p, s) => e.patterns.get(p).contains(s) },
      s"A-HTPGM at $cell is not a subset of E-HTPGM with equal supports")
}

object Bench {
  val Slots = 48
  val TMax = 20L
  val GraphDensity = 0.40
  val CityLabels: Seq[String] = (0 until Inputs.CityStates).map(i => s"S$i")

  def cfg(cell: (Int, Int)): MiningConfig =
    MiningConfig(sigma = cell._1 / 100.0, delta = cell._2 / 100.0, tMax = TMax)

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Where Spark is lazy, the traced run forces the boundary with `count()`. */
  def force(t: Tracer, df: DataFrame): DataFrame = {
    if (t.enabled) df.count()
    df
  }

  private def record(out: JobOut, prefix: String, r: MiningResult): Unit = {
    out.add(s"$prefix.candidates", r.stats.candidatePatterns)
    out.add(s"$prefix.nodes", r.stats.candidateNodes)
    out.add(s"$prefix.pruned_nodes", r.stats.prunedNodes)
    out.add(s"$prefix.patterns", r.patterns.size)
    out.max(s"$prefix.max_level", r.stats.maxLevelReached)
    out.max(s"$prefix.structure_mb", r.stats.structureMB)
  }

  private def levels(out: JobOut, prefix: String, fullS: Double, capped: Int => MiningResult): Unit = {
    val l1 = timed(capped(1))._2
    val l12 = timed(capped(2))._2
    out.add(s"$prefix.l1.s", l1)
    out.add(s"$prefix.l2.s", l12 - l1)
    out.add(s"$prefix.lk.s", fullS - l12)
  }

  /** The Table V monotonicity: cells at tighter thresholds are filters of a looser result. */
  def filterTo(r: MiningResult, cell: (Int, Int)): Map[Pattern, Int] = {
    val minSupp = cfg(cell).minSupp(r.dbSize)
    r.patterns.filter { case (p, s) => s >= minSupp && r.confidence(p, s) >= cell._2 / 100.0 }
  }

  /** Structural equality of two sequence databases (instances are arrays). */
  def sameDb(a: SequenceDB, b: SequenceDB): Boolean =
    a.eventNames == b.eventNames && a.eventSeries == b.eventSeries && a.seriesNames == b.seriesNames &&
      a.size == b.size && a.sequences.zip(b.sequences).forall { case (x, y) =>
        x.id == y.id && x.instances.sameElements(y.instances)
      }

  def sameSymbolic(a: SymbolicDB, b: SymbolicDB): Boolean =
    a.series.size == b.series.size && a.series.zip(b.series).forall { case (x, y) =>
      x.name == y.name && x.alphabet == y.alphabet && x.symbols.sameElements(y.symbols)
    }

  def apply(workload: String, tiny: Boolean): Bench = workload match {
    case "ingest-energy" => if (tiny) new IngestEnergy(16, 8, 1) else new IngestEnergy(120, 16, 10)
    case "mine-city" => if (tiny) new MineCity(16, 8, 1) else new MineCity(30, 8, 3)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** The workloads. The distributed miner has none of its own: one
    * `SparkHTPGM.mine` takes 10–20 s on 4 cores at any input size (its cost
    * is one Spark job per step of each level over the session's shuffle
    * partitions) and varies by a quarter between calls, so a run could time
    * one call at most. It is measured per layer in ingest-energy's traced
    * run instead.
    */
  val Names: Seq[String] = Seq("ingest-energy", "mine-city")
}

/** The local FTPMfTS pipeline, from Parquet to E-HTPGM and A-HTPGM at
  * (50,50). The data layer does most of the work and the MI layer a
  * visible share; the mining kernel does little.
  *
  * A traced job is followed, outside its timing, by `SparkHTPGM.mine` at the
  * same cell on the job's cached instance DataFrame, checked against the
  * job's E-HTPGM result: the Spark miner is measured per layer only (see
  * `Main` for why it has no workload of its own).
  */
final class IngestEnergy(seqs: Int, series: Int, warmups: Int)
  extends Bench("ingest-energy", seqs, series, warmups) {
  import Bench._
  private val Cell = (50, 50)
  private var db: SequenceDB = _
  private var symDb: SymbolicDB = _
  private var hdfs: Map[Pattern, Int] = _

  def generate(seed: Long): Inputs.Raw = Inputs.energy(seqs, series, Slots, seed)

  def prepare(spark: SparkSession, t: Tracer, id: String, out: JobOut): Unit = {
    val (_, d, s) = pipeline(spark, t, id, out)
    if (db == null) { db = d; symDb = s }
  }

  private def pipeline(spark: SparkSession, t: Tracer, id: String,
                       out: JobOut): (DataFrame, SequenceDB, SymbolicDB) = {
    val sym = readAndSymbolize(spark, t, id, Symbolizer.byThreshold(_))
    val inst = instances(t, id, out, sym)
    val d = t.span(id, "data.to_local")(SequenceBuilder.toLocal(inst))
    val s = t.span(id, "data.to_symbolic")(SequenceBuilder.toSymbolicDB(sym))
    (inst, d, s)
  }

  def reference(): Unit = hdfs = HDFS.mine(db, cfg(Cell)).patterns

  def job(spark: SparkSession, t: Tracer, id: String, out: JobOut, corrupt: Corrupt): Unit = {
    val (inst, d, s) = pipeline(spark, t, id, out)
    val g = graph(t, id, out, s, d)
    val (e, a) = mineBoth(t, id, out, d, g, Cell)
    t.span(id, "bench.check") {
      out.check(sameDb(d, db) && sameSymbolic(s, symDb), "collected DB differs from the set-up DB")
      out.check(corrupt(e.patterns) == hdfs, s"E-HTPGM at $Cell differs from H-DFS")
      checkSubset(out, Cell, e, a)
    }
    if (t.enabled) out.probes += (() => {
      val sc = spark.sparkContext
      def storageBytes = sc.getExecutorMemoryStatus.values.map { case (max, free) => max - free }.sum
      val before = storageBytes
      val r = t.span(id, "spark.mine")(SparkHTPGM.mine(inst, cfg(Cell)))
      out.add("spark.mine.cached_mb_after", (storageBytes - before) / 1048576.0)
      out.check(r.patterns == e.patterns, s"SparkHTPGM at $Cell differs from local E-HTPGM")
    })
  }
}

/** Threshold exploration on the City-like multi-state shape: the local
  * DB is prepared in set-up and each job builds the correlation graph and
  * mines E-HTPGM and A-HTPGM at three cells. The mining kernel does nearly
  * all the work; Spark is idle.
  */
final class MineCity(seqs: Int, series: Int, warmups: Int) extends Bench("mine-city", seqs, series, warmups) {
  import Bench._
  private val Loose = (20, 20)
  private val Tight = Seq((50, 50), (80, 80))
  private var db: SequenceDB = _
  private var symDb: SymbolicDB = _
  private var tpminer: Map[(Int, Int), Map[Pattern, Int]] = _

  def generate(seed: Long): Inputs.Raw = Inputs.city(seqs, series, Slots, seed)

  def prepare(spark: SparkSession, t: Tracer, id: String, out: JobOut): Unit = {
    val sym = readAndSymbolize(spark, t, id, Symbolizer.byStates(_, CityLabels))
    val inst = instances(t, id, out, sym)
    db = t.span(id, "data.to_local")(SequenceBuilder.toLocal(inst))
    symDb = t.span(id, "data.to_symbolic")(SequenceBuilder.toSymbolicDB(sym))
  }

  def reference(): Unit = tpminer = Tight.map(c => c -> TPMiner.mine(db, cfg(c)).patterns).toMap

  def job(spark: SparkSession, t: Tracer, id: String, out: JobOut, corrupt: Corrupt): Unit = {
    val g = graph(t, id, out, symDb, db)
    val results = (Loose +: Tight).map(c => c -> mineBoth(t, id, out, db, g, c)).toMap
    t.span(id, "bench.check") {
      for (c <- Tight) {
        val e = results(c)._1.patterns
        val checked = if (c == Tight.head) corrupt(e) else e
        out.check(checked == tpminer(c), s"E-HTPGM at $c differs from TPMiner")
        out.check(filterTo(results(Loose)._1, c) == e, s"E-HTPGM at $Loose filtered to $c differs from $c")
      }
      for ((c, (e, a)) <- results) checkSubset(out, c, e, a)
    }
  }
}
