package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One dictionary-encoded event instance row of the distributed D_SEQ. */
final case class InstRow(seq: Int, event: Int, start: Long, end: Long)

/** One stored occurrence of a pattern: `pat` is `Pattern.encode`, and
  * `starts`/`ends` are the instance intervals in pattern (chronological)
  * order — the instance events are the pattern's events.
  */
final case class OccRow(seq: Int, pat: Seq[Int], starts: Seq[Long], ends: Seq[Long])

/** Distributed HTPGM over Spark dataflow (the repo's adaptation of
  * Algorithm 1 to the DataFrame/Dataset API).
  *
  *  - L1 supports: grouped `countDistinct(seq)` over the instance table.
  *  - L2: a Catalyst self-join on the sequence id with the chronological
  *    ordering predicate and [[Relation.classifyCol]]; distinct
  *    `(E_i, r, E_j, seq)` rows aggregated to supports.
  *  - L≥3: stored occurrences as a typed `Dataset[OccRow]`, extended per
  *    sequence via `cogroup` with the instance table; candidate supports by
  *    grouping on the encoded-pattern array column. The exact transitivity
  *    prunings (frequent-L2-triple lookup, extension-alphabet filter) are
  *    applied — they do not change the result set, only the work.
  *
  * Output is identical to [[repro.core.HTPGM]] (asserted in tests). The
  * optional `approx` argument reproduces A-HTPGM's L1/L2 restriction from
  * a correlation graph given as a set of unordered series-name edges.
  * Every Dataset a call caches is unpersisted before it returns.
  */
object SparkHTPGM {

  /** The Datasets one `mine` call caches, released when it returns. */
  private final class Caches {
    private val all = scala.collection.mutable.ArrayBuffer.empty[Dataset[_]]

    def keep[T](ds: Dataset[T]): Dataset[T] = { all += ds; ds.cache() }

    /** Dependents first, so no cached plan is rebuilt over a released one. */
    def release(): Unit = all.reverseIterator.foreach(_.unpersist())
  }

  /** Mine an instance DataFrame produced by `SequenceBuilder.instances`
    * (columns seq, series, symbol, start, end). Event ids use the same
    * sorted `"series=symbol"` dictionary as `SequenceBuilder.toLocal`, so
    * patterns are directly comparable with the local miners'.
    */
  def mine(instDf: DataFrame, cfg: MiningConfig,
           approxEdges: Option[Set[(String, String)]] = None): MiningResult = {
    val caches = new Caches
    try mineWith(instDf, cfg, approxEdges, caches) finally caches.release()
  }

  private def mineWith(instDf: DataFrame, cfg: MiningConfig,
                       approxEdges: Option[Set[(String, String)]], caches: Caches): MiningResult = {
    val spark = instDf.sparkSession
    import spark.implicits._
    val t0 = System.nanoTime()

    // Event dictionary (small) — sorted to match SequenceBuilder.toLocal.
    val dict: Map[(String, String), Int] = instDf.select("series", "symbol").distinct()
      .collect().map(r => (r.getString(0), r.getString(1)))
      .sortBy { case (s, y) => s"$s=$y" }.zipWithIndex.toMap
    val eventNames = dict.toSeq.sortBy(_._2).map { case ((s, y), _) => s"$s=$y" }.toIndexedSeq
    val eventSeriesName = dict.toSeq.sortBy(_._2).map(_._1._1).toIndexedSeq
    val dictDf = dict.toSeq.map { case ((s, y), e) => (s, y, e) }.toDF("series", "symbol", "event")

    val inst: Dataset[InstRow] = caches.keep(instDf
      .join(broadcast(dictDf), Seq("series", "symbol"))
      .select($"seq".cast("int"), $"event", $"start".cast("long"), $"end".cast("long"))
      .as[InstRow])

    val nSeq = inst.select("seq").distinct().count().toInt
    val minSupp = cfg.minSupp(nSeq)

    // ---- L1 --------------------------------------------------------------
    val eventSupp: Map[Int, Int] = inst.groupBy("event")
      .agg(countDistinct("seq").as("supp"))
      .collect().map(r => r.getInt(0) -> r.getLong(1).toInt).toMap

    val approxAllowedEvent: Int => Boolean = approxEdges match {
      case None => _ => true
      case Some(edges) =>
        val inXc = edges.flatMap { case (a, b) => Seq(a, b) }
        e => inXc.contains(eventSeriesName(e))
    }
    val freq1: Set[Int] = eventSupp.collect {
      case (e, s) if s >= minSupp && approxAllowedEvent(e) => e
    }.toSet

    val pairAllowed: (Int, Int) => Boolean = approxEdges match {
      case None => (_, _) => true
      case Some(edges) => (e1, e2) => {
        val a = eventSeriesName(e1); val b = eventSeriesName(e2)
        a == b || edges.contains((a, b)) || edges.contains((b, a))
      }
    }

    val finst = caches.keep(inst.filter(i => freq1.contains(i.event)))

    // ---- L2: Catalyst self-join ------------------------------------------
    val a = finst.toDF("seq", "ae", "asx", "aex")
    val b = finst.toDF("seq", "be", "bsx", "bex")
    val chrono = ($"asx" < $"bsx") ||
      ($"asx" === $"bsx" && ($"aex" < $"bex" || ($"aex" === $"bex" && $"ae" < $"be")))
    val relCol = Relation.classifyCol($"asx", $"aex", $"bsx", $"bex", cfg.eps, cfg.dO)
    val pairAllowedUdf = udf(pairAllowed)
    val joined = caches.keep(a.join(b, Seq("seq"))
      .where(chrono && ($"bex" - $"asx" <= cfg.tMax))
      .withColumn("rel", relCol)
      .where($"rel" =!= Relation.None.toInt)
      .where(pairAllowedUdf($"ae", $"be")))

    val l2counts = joined.select($"ae", $"rel", $"be", $"seq").distinct()
      .groupBy("ae", "rel", "be").count()
      .collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)) -> r.getLong(3).toInt).toMap

    def conf(events: Seq[Int], supp: Int): Double =
      supp.toDouble / events.iterator.map(eventSupp).max

    val l2kept = l2counts.filter { case ((e1, _, e2), s) =>
      s >= minSupp && conf(Seq(e1, e2), s) >= cfg.delta
    }
    val results = scala.collection.mutable.HashMap.empty[Pattern, Int]
    results ++= l2kept.map { case ((e1, r, e2), s) => Pattern.pair(e1, r.toByte, e2) -> s }

    // ---- L≥3: occurrence extension via cogroup ---------------------------
    val freq2Keys: Set[(Int, Int, Int)] = l2kept.keySet
    var occ: Dataset[OccRow] = caches.keep(joined
      .select($"seq", $"ae", $"asx", $"aex", $"be", $"bsx", $"bex", $"rel")
      .as[(Int, Int, Long, Long, Int, Long, Long, Int)]
      .filter(r => freq2Keys.contains((r._2, r._8, r._5)))
      .map { case (seq, ae, as_, aend, be, bs, bend, rel) =>
        OccRow(seq, Pattern(Vector(ae, be), Vector(rel.toByte)).encode.toSeq,
               Seq(as_, bs), Seq(aend, bend))
      })

    var level = 2
    var maxLevelReached = if (l2kept.nonEmpty) 2 else 1
    var done = l2kept.isEmpty
    while (!done && level < cfg.maxLevel) {
      level += 1
      // Lemma 5: only events present in a frequent (k-1)-pattern extend.
      val allowedExt: Set[Int] =
        if (level == 3) l2kept.keySet.flatMap { case (e1, _, e2) => Set(e1, e2) }
        else results.keysIterator.filter(_.size == level - 1).flatMap(_.events).toSet
      val bEps = cfg.eps; val bDO = cfg.dO; val bTMax = cfg.tMax
      val bFreq2 = freq2Keys; val bAllowed = allowedExt

      val extended: Dataset[OccRow] = caches.keep(occ.groupByKey(_.seq)
        .cogroup(finst.groupByKey(_.seq)) { (seq, occs, insts) =>
          val byEvent = insts.toArray.groupBy(_.event)
            .view.mapValues(_.sortBy(i => (i.start, i.end))).toMap
          occs.flatMap { o =>
            val p = Pattern.decode(o.pat.toArray)
            val k = p.size
            val lastS = o.starts(k - 1); val lastE = o.ends(k - 1); val lastEv = p.events(k - 1)
            bAllowed.iterator.flatMap { eK =>
              byEvent.getOrElse(eK, Array.empty[InstRow]).iterator.flatMap { i =>
                val after = i.start > lastS ||
                  (i.start == lastS && (i.end > lastE || (i.end == lastE && i.event > lastEv)))
                if (after && i.end - o.starts.head <= bTMax) {
                  var ok = true
                  val rels = new Array[Byte](k)
                  var j = k - 1
                  while (ok && j >= 0) {
                    val r = Relation.classify(o.starts(j), o.ends(j), i.start, i.end, bEps, bDO)
                    if (r == Relation.None || !bFreq2.contains((p.events(j), r.toInt, eK))) ok = false
                    else rels(j) = r
                    j -= 1
                  }
                  if (ok) Some(OccRow(seq, p.extended(eK, rels.toIndexedSeq).encode.toSeq,
                                      o.starts :+ i.start, o.ends :+ i.end))
                  else None
                } else None
              }
            }
          }
        })

      val counts = extended.toDF().groupBy("pat")
        .agg(countDistinct("seq").as("supp"))
        .collect()
        .map(r => (r.getSeq[Int](0), r.getLong(1).toInt))

      val kept = counts.filter { case (patSeq, s) =>
        val p = Pattern.decode(patSeq.toArray)
        s >= minSupp && conf(p.events, s) >= cfg.delta
      }
      if (kept.isEmpty) done = true
      else {
        maxLevelReached = level
        results ++= kept.map { case (patSeq, s) => Pattern.decode(patSeq.toArray) -> s }
        val keptKeys = kept.map(_._1).toSet
        val prevOcc = occ
        occ = caches.keep(extended.filter(o => keptKeys.contains(o.pat)))
        prevOcc.unpersist()
      }
    }

    val stats = MiningStats((System.nanoTime() - t0) / 1000000L, structureBytes = 0L,
      candidateNodes = 0, prunedNodes = 0, candidatePatterns = 0, maxLevelReached)
    MiningResult(results.toMap, eventSupp.filter(_._2 >= minSupp), nSeq, stats)
  }
}
