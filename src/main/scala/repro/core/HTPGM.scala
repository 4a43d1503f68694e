package repro.core

import java.util.Arrays
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.LongAdder
import java.util.stream.IntStream
import scala.collection.mutable

/** Exact Hierarchical Temporal Pattern Graph Mining (Algorithm 1).
  *
  * The miner is level-wise over the Hierarchical Pattern Graph: level 1
  * holds frequent single events (bitmap popcounts), level 2 frequent
  * 2-event patterns (relations classified over instance pairs of the
  * sequences in the joint bitmap), and level k ≥ 3 extends the stored
  * occurrences of level k−1 patterns with one chronologically-later
  * instance (DESIGN.md §3 proves this regeneration is complete).
  *
  * Pruning toggles map to the paper's ablation (Fig. 6/7):
  *  - `pruneApriori` — Lemmas 2–3: an event combination (node) is mined
  *    only if its joint-bitmap support ≥ σ and node confidence ≥ δ.
  *  - `pruneTrans` — Lemmas 4–7: (a) only events participating in a
  *    frequent (k−1)-pattern can extend (Lemma 5), (b) every new triple is
  *    looked up in the frequent L2 relation set before the extension is
  *    materialized (iterative verification), (c) only confident patterns
  *    are extended (Lemmas 6–7).
  *
  * All four configurations return identical pattern sets (tested); the
  * toggles change work and retained state, which is what Tables VII/VIII
  * and the pruning ablation measure.
  *
  * Occurrence store (DESIGN.md §3). The instances of frequent events are
  * flat `start`/`end`/`event` arrays over all sequences, addressed by
  * position, with a per-sequence, per-event index of positions. A pattern
  * kept for extension holds its occurrences as two int arrays: the
  * sequence of each occurrence, and its k instance positions, grouped by
  * sequence, so support is the number of sequence changes. A child's
  * prefix is its parent, so the children of one (parent, extension event)
  * pair are keyed by their new relation column alone, packed 2 bits per
  * relation into a `Long`, and are σ/δ-filtered as soon as that pair is
  * extended. A [[Pattern]] is built only for reported results.
  *
  * Parallel levels (DESIGN.md §3). Within level k each node of the HPG —
  * an event multiset of L(k−1) with its patterns — is one task on the
  * common `ForkJoinPool`. A task runs the whole per-node body: the A-HTPGM
  * pair filter, the Apriori node check, the Lemma 5–7 relation masks, the
  * extension and the σ/δ filter, and returns its candidate count, its
  * largest live-candidate bytes and its kept children. Tasks read only
  * frozen state (bitmaps, instance arrays, `freq2`, their own patterns)
  * and share only the node cache, a `ConcurrentHashMap` that counts each
  * node once. The calling thread merges the task results in node order
  * into the results, the next level, `freq2` and the structure bytes.
  * `freq2` is written only by the k = 2 merge and read only by tasks at
  * k > 2, after that merge. The merge order is the order of the former
  * sequential loop, so the result and every counter but the runtime do
  * not depend on the schedule.
  */
object HTPGM {

  /** A-HTPGM hook (Algorithm 2): restrict level 1 to events of correlated
    * series and level 2 to event pairs whose series are connected in the
    * correlation graph. Same-series pairs are always allowed (NMI(X;X)=1).
    */
  final case class ApproxFilter(eventAllowed: Int => Boolean,
                                pairAllowed: (Int, Int) => Boolean)

  /** A relation column `r(0,j) .. r(j-1,j)` packed 2 bits per relation,
    * `r(i,j)` at bits `2i, 2i+1`: the key of a child among its parent's
    * children.
    */
  private[core] object RelColumn {
    /** Relations a `Long` key holds, so patterns have at most 33 events. */
    val MaxLength = 32

    /** Mining level `k` packs columns of k−1 relations. */
    def requireFits(level: Int): Unit =
      require(level - 1 <= MaxLength,
        s"HTPGM level $level needs ${level - 1} relations per candidate key, " +
          s"but a packed key holds at most $MaxLength (patterns of at most ${MaxLength + 1} events)")

    @inline def put(key: Long, i: Int, r: Byte): Long = key | (r.toLong << (2 * i))

    def unpack(key: Long, length: Int): Array[Byte] =
      Array.tabulate(length)(i => ((key >>> (2 * i)) & 3L).toByte)
  }

  /** A pattern kept for extension: events, relations laid out as
    * [[Pattern.rels]], and its occurrences — `seqs(o)` is the sequence of
    * occurrence `o`, `pos(o*k until (o+1)*k)` its instance positions in
    * chronological order; occurrences are grouped by sequence.
    */
  private final class Stored(val events: Array[Int], val rels: Array[Byte],
                             val seqs: Array[Int], val pos: Array[Int])

  /** The occurrences of one candidate child, appended sequence by sequence. */
  private final class Child {
    val seqs = new mutable.ArrayBuilder.ofInt
    val pos = new mutable.ArrayBuilder.ofInt
    var occurrences = 0
    var support = 0
    private var lastSeq = -1

    def add(seq: Int, parentPos: Array[Int], from: Int, k1: Int, x: Int): Unit = {
      if (seq != lastSeq) { support += 1; lastSeq = seq }
      seqs += seq
      pos.addAll(parentPos, from, k1)
      pos += x
      occurrences += 1
    }
  }

  /** A child that passed the σ/δ filter: its store, support, and whether
    * it is confident, i.e. a reported result.
    */
  private final class Kept(val stored: Stored, val support: Int, val confident: Boolean)

  /** What one node task returns: its candidate count, its largest
    * live-candidate bytes, and its kept children in loop order.
    */
  private final class NodeResult(val candidates: Long, val peakBytes: Long, val kept: Array[Kept])

  /** Modelled bytes of a k-event occurrence store (Table VIII): two int
    * array headers, plus one sequence id and k instance positions per
    * occurrence.
    */
  private def storeBytes(k: Int, occurrences: Long): Long =
    2 * 16L + 4L * (k + 1) * occurrences

  def mine(db: SequenceDB, cfg: MiningConfig,
           approx: Option[ApproxFilter] = None): MiningResult = {
    val t0 = System.nanoTime()
    val n = db.size
    val minSupp = cfg.minSupp(n)

    var structureBytes = 0L
    var candidatePatterns = 0L
    var peakCandidateBytes = 0L

    // ---- Level 1: frequent single events (Section IV.D) ----------------
    val bitmaps = db.eventBitmaps
    structureBytes += bitmaps.valuesIterator.map(_.approxBytes).sum
    val eventSupp: Map[Int, Int] = bitmaps.map { case (e, b) => e -> b.cardinality }
    val freq1: Vector[Int] = (0 until db.numEvents)
      .filter(e => eventSupp(e) >= minSupp)
      .filter(e => approx.forall(_.eventAllowed(e)))
      .toVector
    val supp1 = Array.tabulate(db.numEvents)(eventSupp)

    // Instances of frequent events, flat over all sequences. `extEvents(s)`
    // holds the sorted frequent events of sequence s and `exts(s)(i)` the
    // positions of event `extEvents(s)(i)` there, in chronological order.
    val isFreq = new Array[Boolean](db.numEvents)
    freq1.foreach(isFreq(_) = true)
    val startB = new mutable.ArrayBuilder.ofLong
    val endB = new mutable.ArrayBuilder.ofLong
    val eventB = new mutable.ArrayBuilder.ofInt
    val extEvents = new Array[Array[Int]](n)
    val exts = new Array[Array[Array[Int]]](n)
    var nInst = 0
    for ((s, si) <- db.sequences.iterator.zipWithIndex) {
      val byEvent = mutable.TreeMap.empty[Int, mutable.ArrayBuilder.ofInt]
      for (inst <- s.instances if isFreq(inst.event)) {
        startB += inst.start; endB += inst.end; eventB += inst.event
        byEvent.getOrElseUpdate(inst.event, new mutable.ArrayBuilder.ofInt) += nInst
        nInst += 1
      }
      extEvents(si) = byEvent.keysIterator.toArray
      exts(si) = byEvent.valuesIterator.map(_.result()).toArray
    }
    val start = startB.result(); val end = endB.result(); val event = eventB.result()
    def extsOf(seq: Int, e: Int): Array[Int] = {
      val i = Arrays.binarySearch(extEvents(seq), e)
      if (i >= 0) exts(seq)(i) else null
    }

    // Level-1 "occurrences": every instance is a 1-tuple.
    var prev: Vector[Stored] = freq1.map { e =>
      val seqs = new mutable.ArrayBuilder.ofInt
      val pos = new mutable.ArrayBuilder.ofInt
      for (seq <- bitmaps(e).setBits; x <- extsOf(seq, e)) { seqs += seq; pos += x }
      new Stored(Array(e), Array.emptyByteArray, seqs.result(), pos.result())
    }

    // Node-level Apriori cache: sorted event multiset -> passes. Tasks
    // share it, so each node is counted once by the thread that adds it.
    val nodeCache = new ConcurrentHashMap[Vector[Int], java.lang.Boolean]
    val candidateNodes = new LongAdder
    candidateNodes.add(db.numEvents)
    val prunedNodes = new LongAdder
    val nodeBytes = new LongAdder
    def nodePasses(eventsSorted: Vector[Int]): Boolean =
      nodeCache.computeIfAbsent(eventsSorted, _ => {
        candidateNodes.increment()
        val bm = eventsSorted.map(bitmaps).reduce(_ and _)
        nodeBytes.add(bm.approxBytes)
        val supp = bm.cardinality
        val ok = supp >= minSupp &&
          supp.toDouble / eventsSorted.iterator.map(eventSupp).max >= cfg.delta
        if (!ok) prunedNodes.increment()
        ok
      })

    // Frequent + confident L2 triples (E_i, r, E_j): a bit mask of the
    // relations r, keyed by the packed event pair (E_i, E_j).
    val freq2 = mutable.LongMap.empty[Int]
    def pairKey(a: Int, b: Int): Long = (a.toLong << 32) | (b.toLong & 0xFFFFFFFFL)

    /** Extends every occurrence of `p` with each later instance of `eK`;
      * `relMask(i)` holds the relations allowed between event i and eK.
      */
    def extend(p: Stored, eK: Int, relMask: Array[Int]): mutable.LongMap[Child] = {
      val children = mutable.LongMap.empty[Child]
      val k1 = p.events.length
      val pos = p.pos; val seqs = p.seqs
      var o = 0; var seq = -1; var xs: Array[Int] = null
      while (o < seqs.length) {
        if (seqs(o) != seq) { seq = seqs(o); xs = extsOf(seq, eK) }
        if (xs != null) {
          val base = o * k1
          val firstStart = start(pos(base)); val last = pos(base + k1 - 1)
          var xi = 0
          while (xi < xs.length) {
            val x = xs(xi)
            // chronological tie-broken order: x after the occurrence's last instance
            val after = start(x) > start(last) ||
              (start(x) == start(last) && (end(x) > end(last) ||
                (end(x) == end(last) && eK > event(last))))
            if (after && end(x) - firstStart <= cfg.tMax) {
              // Classify relations to each existing instance; abort on a gap
              // relation or a relation outside the mask.
              var key = 0L; var i = k1 - 1; var ok = true
              while (ok && i >= 0) {
                val q = pos(base + i)
                val r = Relation.classify(start(q), end(q), start(x), end(x), cfg.eps, cfg.dO)
                if (r == Relation.None || (relMask(i) & (1 << r)) == 0) ok = false
                else key = RelColumn.put(key, i, r)
                i -= 1
              }
              if (ok) {
                var c = children.getOrNull(key)
                if (c == null) { c = new Child; children.update(key, c) }
                c.add(seq, pos, base, k1, x)
              }
            }
            xi += 1
          }
        }
        o += 1
      }
      children
    }

    val results = Map.newBuilder[Pattern, Int]
    var level = 1
    var maxLevelReached = 1

    while (prev.nonEmpty && level < cfg.maxLevel) {
      level += 1
      val k = level
      RelColumn.requireFits(k)

      // Lemma 5 filtering of the extension alphabet (Trans only; level 2
      // always extends with all of 1Freq — there are no prior patterns).
      val allowedExt: Vector[Int] =
        if (k == 2 || !cfg.pruneTrans) freq1
        else {
          val used = prev.iterator.flatMap(_.events).toSet
          freq1.filter(used)
        }
      val trans = k > 2 && cfg.pruneTrans

      // One task: the Apriori node filter (Lemmas 2-3) depends only on the
      // event multiset, so each (node, event) pair is checked once — the
      // HPG's node structure, not per-pattern — and then every pattern of
      // the node is extended with the event.
      def mineNode(nodeEv: Vector[Int], pats: Vector[Stored]): NodeResult = {
        val relMask = new Array[Int](k - 1)
        val kept = Array.newBuilder[Kept]
        var candidates = 0L
        var peakBytes = 0L
        for (eK <- allowedExt) {
          // A-HTPGM: at level 2 only graph-connected series pairs are mined.
          val approxOk = k != 2 || approx.forall(_.pairAllowed(nodeEv(0), eK))
          val nodeOk = !cfg.pruneApriori || nodePasses((nodeEv :+ eK).sorted)
          if (approxOk && nodeOk) {
            for (p <- pats) {
              // (Trans) iterative verification: only relations r with
              // (E_i, r, E_K) in the frequent L2 set; none at all ⇒ no child.
              var i = 0; var feasible = true
              while (i < k - 1) {
                relMask(i) = if (trans) freq2.getOrElse(pairKey(p.events(i), eK), 0) else 7
                feasible &&= relMask(i) != 0
                i += 1
              }
              if (feasible) {
                val children = extend(p, eK, relMask)
                val maxSupp = math.max(p.events.iterator.map(supp1).max, supp1(eK))
                var liveBytes = 0L
                // σ/δ filtering. Frequent-but-unconfident patterns are still
                // extended under NoPrune/Apriori (the paper's ablation cost);
                // Trans stops them via Lemmas 6–7. Output requires both.
                children.foreach { case (key, c) =>
                  candidates += c.occurrences
                  liveBytes += storeBytes(k, c.occurrences)
                  if (c.support >= minSupp) {
                    val confident = c.support.toDouble / maxSupp >= cfg.delta
                    if (confident || !cfg.pruneTrans) {
                      val stored = new Stored(p.events :+ eK, p.rels ++ RelColumn.unpack(key, k - 1),
                        c.seqs.result(), c.pos.result())
                      kept += new Kept(stored, c.support, confident)
                    }
                  }
                }
                peakBytes = math.max(peakBytes, liveBytes)
              }
            }
          }
        }
        new NodeResult(candidates, peakBytes, kept.result())
      }

      // One task per node on the common pool; the merge below runs on
      // this thread in node order, so the output does not depend on the
      // schedule.
      val nodes = prev.groupBy(_.events.toVector.sorted).toArray
      val mined = new Array[NodeResult](nodes.length)
      IntStream.range(0, nodes.length).parallel()
        .forEach(i => mined(i) = mineNode(nodes(i)._1, nodes(i)._2))

      val next = Vector.newBuilder[Stored]
      for (r <- mined) {
        candidatePatterns += r.candidates
        peakCandidateBytes = math.max(peakCandidateBytes, r.peakBytes)
        for (c <- r.kept) {
          val s = c.stored
          if (c.confident) {
            results += Pattern(s.events.toVector, s.rels.toVector) -> c.support
            // freq2 is written only here at k = 2 and read by tasks at k > 2
            if (k == 2) {
              val pk = pairKey(s.events(0), s.events(1))
              freq2(pk) = freq2.getOrElse(pk, 0) | (1 << s.rels(0))
            }
          }
          next += s
          structureBytes += storeBytes(k, s.seqs.length)
        }
      }
      prev = next.result()
      if (prev.nonEmpty) maxLevelReached = k
    }

    structureBytes += nodeBytes.sum + peakCandidateBytes
    val stats = MiningStats(
      runtimeMillis = (System.nanoTime() - t0) / 1000000L,
      structureBytes = structureBytes,
      candidateNodes = candidateNodes.sum,
      prunedNodes = prunedNodes.sum,
      candidatePatterns = candidatePatterns,
      maxLevelReached = maxLevelReached)
    MiningResult(results.result(), eventSupp.filter { case (e, s) => s >= minSupp }, n, stats)
  }
}
