package repro.core

import java.util.stream.{Collectors, IntStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestDbs
import repro.mi.CorrelationGraph
import scala.jdk.CollectionConverters._

/** HTPGM mines each level's nodes as parallel tasks and merges them in
  * node order: the result and every counter but the runtime must not
  * depend on the schedule, also when several mines share the pool.
  */
class ParallelMiningSpec extends AnyFunSuite {

  // ≈ 1,000 nodes over four levels, so each level splits into many tasks
  private val db = TestDbs.random(21L, nSeqs = 24, nEvents = 10, pPresent = 0.9, horizon = 20)
  private val cfg = MiningConfig(sigma = 0.2, delta = 0.2, maxLevel = 6)
  private val band = {
    val n = db.seriesNames.size
    CorrelationGraph(n, Array.tabulate(n, n)((i, j) => math.abs(i - j) <= 2 && i != j))
  }

  private val configs: IndexedSeq[MiningConfig] = IndexedSeq(
    cfg,
    cfg.copy(pruneTrans = false),
    cfg.copy(pruneApriori = false),
    cfg.copy(pruneApriori = false, pruneTrans = false))

  /** Fails unless `got` reports what `want` does, apart from the wall time. */
  private def assertSame(got: MiningResult, want: MiningResult, clue: String): Unit = {
    assert(got.stats.copy(runtimeMillis = 0L) == want.stats.copy(runtimeMillis = 0L), clue)
    assert(got.eventSupport == want.eventSupport && got.dbSize == want.dbSize, clue)
    if (got.patterns != want.patterns) {
      val differ = (got.patterns.toSet diff want.patterns.toSet) ++ (want.patterns.toSet diff got.patterns.toSet)
      fail(s"$clue: ${differ.size} (pattern, support) pairs differ, e.g. ${differ.take(3)}")
    }
  }

  /** Call `i` of eight: E-HTPGM (even) or A-HTPGM (odd) under one of the
    * four pruning configs.
    */
  private def run(i: Int): MiningResult = {
    val c = configs(i / 2)
    if (i % 2 == 0) HTPGM.mine(db, c) else AHTPGM.mine(db, c, band)
  }

  test("mining the same database three times gives the same patterns and counters") {
    val first = HTPGM.mine(db, cfg)
    assert(first.stats.maxLevelReached >= 4, "sanity: the input must reach deep levels")
    assert(first.patterns.size > 100, "sanity: the input must have many patterns")
    for (i <- 1 to 2) assertSame(HTPGM.mine(db, cfg), first, s"E-HTPGM run ${i + 1}")
    val approx = AHTPGM.mine(db, cfg, band)
    for (i <- 1 to 2) assertSame(AHTPGM.mine(db, cfg, band), approx, s"A-HTPGM run ${i + 1}")
  }

  test("eight concurrent E-HTPGM and A-HTPGM mines each equal a run made alone") {
    val alone = (0 until 8).map(run)
    val together = IntStream.range(0, 8).parallel()
      .mapToObj[MiningResult](i => run(i))
      .collect(Collectors.toList[MiningResult]).asScala.toIndexedSeq
    for (i <- 0 until 8) assertSame(together(i), alone(i), s"call $i")
  }
}
