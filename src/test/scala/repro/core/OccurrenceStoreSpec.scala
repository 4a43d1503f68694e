package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestDbs}
import repro.baselines.HDFS
import repro.mi.CorrelationGraph

/** The E-HTPGM occurrence store: packed candidate keys, the sparse L2
  * triple set, equivalence with the brute-force miner under random
  * ε/d_o/t_max, and the work counters of fixed inputs.
  */
class OccurrenceStoreSpec extends AnyFunSuite with PropSupport {

  private val configs: Seq[(String, MiningConfig => MiningConfig)] = Seq(
    "All" -> identity,
    "Apriori" -> (_.copy(pruneTrans = false)),
    "Trans" -> (_.copy(pruneApriori = false)),
    "NoPrune" -> (_.copy(pruneApriori = false, pruneTrans = false)))

  private def completeGraph(n: Int) = CorrelationGraph(n, Array.tabulate(n, n)(_ != _))

  private def pack(col: Seq[Byte]): Long =
    col.indices.foldLeft(0L)((key, i) => HTPGM.RelColumn.put(key, i, col(i)))

  test("relation columns pack and unpack every relation value at lengths 1, 2 and 32") {
    val values = Seq(Relation.Follow, Relation.Contain, Relation.Overlap)
    for (len <- Seq(1, 2, 32); i <- 0 until len; r <- values) {
      val col = Seq.tabulate(len)(j => if (j == i) r else values((i + j) % 3))
      assert(HTPGM.RelColumn.unpack(pack(col), len).toSeq == col, s"len=$len i=$i r=$r")
    }
    val allOverlap = Seq.fill(32)(Relation.Overlap)
    assert(HTPGM.RelColumn.unpack(pack(allOverlap), 32).toSeq == allOverlap)
  }

  test("a level deeper than the packed key fails with an error naming the level") {
    HTPGM.RelColumn.requireFits(33)
    val e = intercept[IllegalArgumentException](HTPGM.RelColumn.requireFits(34))
    assert(e.getMessage.contains("level 34"))
  }

  test("25,000 distinct events with few frequent ones mine like H-DFS") {
    val rare = 25000
    // events 0..2 occur in every sequence; events 3.. occur once each
    val frequent = (0 until 6).flatMap(s => Seq(
      (s, 0, 0L, 10L), (s, 1, 2L, 8L), (s, 2, 12L, 15L), (s, 0, 20L, 26L), (s, 1, 24L, 30L)))
    val sparse = (0 until rare).map(i => (i % 6, 3 + i, 40L + i % 50, 41L + i % 50))
    val db = TestDbs.db(3 + rare, frequent ++ sparse)
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5)
    val got = HTPGM.mine(db, cfg)
    assert(got.patterns.nonEmpty)
    assert(got.patterns == HDFS.mine(db, cfg).patterns)
  }

  test("property: every pruning config and complete-graph A-HTPGM equal the brute-force miner") {
    val cases = for {
      seed <- Gen.choose(0L, 1000000L)
      eps <- Gen.choose(0L, 2L)
      dO <- Gen.choose(eps + 1, eps + 4)
      tMax <- Gen.oneOf(Gen.choose(3L, 15L), Gen.const(Long.MaxValue))
      sigma <- Gen.oneOf(0.2, 0.4, 0.6)
      delta <- Gen.oneOf(0.2, 0.5, 0.8)
    } yield (seed, MiningConfig(sigma, delta, eps = eps, dO = dO, tMax = tMax, maxLevel = 4))
    checkProp(Prop.forAll(cases) { case (seed, cfg) =>
      val db = TestDbs.random(seed, nSeqs = 5, nEvents = 4, pPresent = 0.6, horizon = 20)
      val want = TestDbs.naiveMine(db, cfg, maxSize = 4)
      val approx = AHTPGM.mine(db, cfg, completeGraph(db.seriesNames.size)).patterns
      val exact = configs.map { case (name, tweak) =>
        (HTPGM.mine(db, tweak(cfg)).patterns == want) :| s"$name seed=$seed $cfg"
      }
      Prop.all(exact :+ ((approx == want) :| s"A-HTPGM seed=$seed $cfg"): _*)
    }, minTests = 150)
  }

  test("work counters of fixed inputs: candidates, nodes, pruned nodes, max level") {
    // (candidatePatterns, candidateNodes, prunedNodes, maxLevelReached),
    // taken from the level-wide pattern-keyed store this store replaced:
    // the compact store must do exactly the same work
    val pinned = Seq(
      (11L, 0L, 1L, Long.MaxValue) -> Map(
        "All" -> (346, 77, 9, 3), "Apriori" -> (500, 81, 12, 3),
        "Trans" -> (356, 6, 0, 3), "NoPrune" -> (522, 6, 0, 3), "A-HTPGM" -> (105, 52, 3, 2)),
      (13L, 1L, 3L, 15L) -> Map(
        "All" -> (304, 99, 26, 4), "Apriori" -> (392, 106, 33, 4),
        "Trans" -> (316, 6, 0, 4), "NoPrune" -> (425, 6, 0, 4), "A-HTPGM" -> (79, 59, 13, 2)),
      (14L, 2L, 4L, 10L) -> Map(
        "All" -> (198, 81, 6, 3), "Apriori" -> (249, 84, 7, 3),
        "Trans" -> (201, 6, 0, 3), "NoPrune" -> (256, 6, 0, 3), "A-HTPGM" -> (70, 65, 4, 2)))
    for (((seed, eps, dO, tMax), want) <- pinned; (name, r) <- fixedRuns(seed, eps, dO, tMax)) {
      val s = r.stats
      assert((s.candidatePatterns, s.candidateNodes, s.prunedNodes, s.maxLevelReached) == want(name),
        s"seed=$seed $name")
    }
  }

  test("structure bytes of fixed inputs") {
    // Table VIII bytes, taken from the sequential level loop the parallel
    // per-node tasks replaced
    val pinned = Seq(
      (11L, 0L, 1L, Long.MaxValue) -> Map(
        "All" -> 4264L, "Apriori" -> 4384L, "Trans" -> 2560L, "NoPrune" -> 2584L, "A-HTPGM" -> 2240L),
      (13L, 1L, 3L, 15L) -> Map(
        "All" -> 5528L, "Apriori" -> 5696L, "Trans" -> 3296L, "NoPrune" -> 3296L, "A-HTPGM" -> 2428L),
      (14L, 2L, 4L, 10L) -> Map(
        "All" -> 4056L, "Apriori" -> 4128L, "Trans" -> 2256L, "NoPrune" -> 2256L, "A-HTPGM" -> 2396L))
    for (((seed, eps, dO, tMax), want) <- pinned; (name, r) <- fixedRuns(seed, eps, dO, tMax))
      assert(r.stats.structureBytes == want(name), s"seed=$seed $name")
  }

  /** The four pruning configs and chain-graph A-HTPGM on one fixed input. */
  private def fixedRuns(seed: Long, eps: Long, dO: Long, tMax: Long): Seq[(String, MiningResult)] = {
    val db = TestDbs.random(seed, nSeqs = 8, nEvents = 6, pPresent = 0.7, horizon = 20)
    val cfg = MiningConfig(sigma = 0.3, delta = 0.4, eps = eps, dO = dO, tMax = tMax)
    val n = db.seriesNames.size
    val chain = CorrelationGraph(n, Array.tabulate(n, n)((i, j) => math.abs(i - j) == 1))
    configs.map { case (name, tweak) => name -> HTPGM.mine(db, tweak(cfg)) } :+
      ("A-HTPGM" -> AHTPGM.mine(db, cfg, chain))
  }
}
