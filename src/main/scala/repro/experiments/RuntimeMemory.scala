package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.MiningResult
import repro.experiments.Workloads.Dataset

/** Tables VII (runtime, seconds) and VIII (memory, MB): every miner over
  * the σ×δ grid on the NIST-like and SmartCity-like datasets. One harness
  * produces both tables — runtime from wall-clock, memory from the
  * deterministic structure-size accounting (DESIGN.md §4).
  *
  * A correctness tripwire: the baselines and E-HTPGM must report the same
  * number of patterns in every cell (they are exact algorithms for the
  * same problem); a mismatch fails the bench.
  */
object TableVIIVIII {

  final case class Cell(method: String, sigmaPct: Int, deltaPct: Int,
                        runtimeMs: Long, structureBytes: Long, numPatterns: Int)

  def methodNames: Seq[String] =
    Seq("H-DFS", "IEMiner", "TPMiner", "E-HTPGM") ++
      Seq(80, 60, 40, 20).map(d => s"A-HTPGM ($d%)")

  def measure(ds: Dataset,
              grid: Seq[(Int, Int)] = for (s <- Tables.NarrowGrid; d <- Tables.NarrowGrid) yield (s, d))
      : Seq[Cell] = {
    Tables.warmup(ds)
    val out = Seq.newBuilder[Cell]
    for ((s, d) <- grid) {
      val c = Tables.cfg(s, d)
      def record(name: String, r: MiningResult): MiningResult = {
        out += Cell(name, s, d, r.stats.runtimeMillis, r.stats.structureBytes, r.patterns.size)
        r
      }
      val exact = record("E-HTPGM", Tables.eHtpgm(ds.db, c))
      for ((name, m) <- Tables.baselineMiners) {
        val r = record(name, m(ds.db, c))
        require(r.patterns == exact.patterns,
          s"$name disagrees with E-HTPGM on ${ds.name} sigma=$s delta=$d " +
            s"(${r.patterns.size} vs ${exact.patterns.size} patterns)")
      }
      for (density <- Seq(80, 60, 40, 20))
        record(s"A-HTPGM ($density%)", Tables.aHtpgm(ds, c, density))
    }
    out.result()
  }

  def renderRuntime(ds: Dataset, cells: Seq[Cell]): String = render(ds, cells, "VII: Runtime (s)",
    c => Tables.fmtSeconds(c.runtimeMs))

  def renderMemory(ds: Dataset, cells: Seq[Cell]): String = render(ds, cells, "VIII: Memory (MB)",
    c => Tables.fmtMB(c.structureBytes))

  private def render(ds: Dataset, cells: Seq[Cell], what: String, f: Cell => String): String = {
    val sigmas = cells.map(_.sigmaPct).distinct.sorted
    val deltas = cells.map(_.deltaPct).distinct.sorted
    val rows = for (s <- sigmas; m <- methodNames) yield {
      Seq(if (m == methodNames.head) s"$s%" else "", m) ++
        deltas.map(d => cells.find(c => c.method == m && c.sigmaPct == s && c.deltaPct == d)
          .map(f).getOrElse("-"))
    }
    Tables.render(s"Table $what — ${ds.name} (HTPGM rows on ${Tables.htpgmCores} cores, baselines on 1)",
      Seq("supp", "method") ++ deltas.map(d => s"conf $d%"), rows)
  }

  def run(spark: SparkSession): String = {
    val blocks = Seq(Workloads.nist(spark), Workloads.city(spark)).flatMap { ds =>
      val cells = measure(ds)
      Seq(renderRuntime(ds, cells), renderMemory(ds, cells))
    }
    blocks.mkString("\n\n")
  }
}

/** Table IX: A-HTPGM accuracy (fraction of exact patterns retained), for
  * μ-densities {40, 60, 80, 90}% over the σ×δ grid.
  */
object TableIX {
  final case class Cell(densityPct: Int, sigmaPct: Int, deltaPct: Int, accuracyPct: Double)

  def measure(ds: Dataset): Seq[Cell] = {
    Tables.warmup(ds)
    val grid = for (s <- Tables.NarrowGrid; d <- Tables.NarrowGrid) yield (s, d)
    grid.flatMap { case (s, d) =>
      val c = Tables.cfg(s, d)
      val exact = Tables.eHtpgm(ds.db, c)
      Seq(40, 60, 80, 90).map { density =>
        val approx = Tables.aHtpgm(ds, c, density)
        Cell(density, s, d, repro.core.AHTPGM.accuracy(exact, approx) * 100.0)
      }
    }
  }

  def render(ds: Dataset, cells: Seq[Cell]): String = {
    val sigmas = cells.map(_.sigmaPct).distinct.sorted
    val deltas = cells.map(_.deltaPct).distinct.sorted
    val rows = for (s <- sigmas; density <- Seq(40, 60, 80, 90)) yield {
      Seq(if (density == 40) s"$s%" else "", s"$density%") ++
        deltas.map(d => cells.find(c => c.densityPct == density && c.sigmaPct == s && c.deltaPct == d)
          .map(c => f"${c.accuracyPct}%.0f").getOrElse("-"))
    }
    Tables.render(s"Table IX: Accuracy of A-HTPGM (%) — ${ds.name}",
      Seq("supp", "μ-density") ++ deltas.map(d => s"conf $d%"), rows)
  }

  def run(spark: SparkSession): String =
    Seq(Workloads.nist(spark), Workloads.city(spark))
      .map(ds => render(ds, measure(ds))).mkString("\n\n")
}

/** Pruning ablation (the paper's Figs. 6–7, reported here as a table):
  * NoPrune / Apriori / Trans / All runtimes while varying thresholds and
  * the data fraction.
  */
object PruningAblation {
  final case class Cell(variant: String, config: String, runtimeMs: Long, numPatterns: Int,
                        candidatePatterns: Long)

  val variants: Seq[(String, repro.core.MiningConfig => repro.core.MiningConfig)] = Seq(
    "NoPrune" -> (c => c.copy(pruneApriori = false, pruneTrans = false)),
    "Apriori" -> (c => c.copy(pruneApriori = true, pruneTrans = false)),
    "Trans" -> (c => c.copy(pruneApriori = false, pruneTrans = true)),
    "All" -> (c => c.copy(pruneApriori = true, pruneTrans = true)))

  /** Min-of-2 timed runs with a GC between: single-run times in the
    * long-lived bench JVM carry multi-second GC-pause outliers that can
    * invert variant comparisons.
    */
  private def timed(db: repro.core.SequenceDB,
                    c: repro.core.MiningConfig): repro.core.MiningResult = {
    System.gc()
    val r1 = repro.core.HTPGM.mine(db, c)
    val r2 = repro.core.HTPGM.mine(db, c)
    if (r1.stats.runtimeMillis <= r2.stats.runtimeMillis) r1 else r2
  }

  def measure(ds: Dataset): Seq[Cell] = {
    Tables.warmup(ds)
    val byThresholds = for ((s, d) <- Seq((20, 20), (50, 50), (80, 80));
                            (name, tweak) <- variants) yield {
      val r = timed(ds.db, tweak(Tables.cfg(s, d)))
      Cell(name, s"s=$s% d=$d%", r.stats.runtimeMillis, r.patterns.size, r.stats.candidatePatterns)
    }
    val byFraction = for (fracPct <- Seq(25, 50, 75, 100); (name, tweak) <- variants) yield {
      val sub = ds.db.copy(sequences =
        ds.db.sequences.take(ds.db.size * fracPct / 100).zipWithIndex
          .map { case (sq, i) => sq.copy(id = i) })
      val r = timed(sub, tweak(Tables.cfg(50, 50)))
      Cell(name, s"data=$fracPct%", r.stats.runtimeMillis, r.patterns.size, r.stats.candidatePatterns)
    }
    byThresholds ++ byFraction
  }

  def render(ds: Dataset, cells: Seq[Cell]): String = {
    val configs = cells.map(_.config).distinct
    val rows = for (cfg <- configs) yield
      Seq(cfg) ++ variants.map { case (v, _) =>
        cells.find(c => c.variant == v && c.config == cfg).map(c => Tables.fmtSeconds(c.runtimeMs)).get
      }
    Tables.render(s"Pruning ablation (Figs. 6-7): runtime (s) — ${ds.name} (on ${Tables.htpgmCores} cores)",
      Seq("config") ++ variants.map(_._1), rows)
  }

  def run(spark: SparkSession): String = {
    val pats = measure(Workloads.nist(spark))
    // all variants must agree on the result set sizes per config
    for (cfg <- pats.map(_.config).distinct) {
      val sizes = pats.filter(_.config == cfg).map(_.numPatterns).distinct
      require(sizes.size == 1, s"pruning variants disagree at $cfg: $sizes")
    }
    Seq(render(Workloads.nist(spark), pats),
        render(Workloads.city(spark), measure(Workloads.city(spark)))).mkString("\n\n")
  }
}
