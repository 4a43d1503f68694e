package repro.perfbench

import java.security.MessageDigest
import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession

/** The benchmark's own seeded input generator.
  *
  * It produces the two DESIGN.md §4 shapes in the repo-wide raw layout
  * `(series, t, value)` without calling `PatternedData`, so a change to the
  * program's generator cannot change what the benchmark measures:
  *
  *  - energy: binary appliance series. Three quarters of the series form
  *    cascade groups of four (a trigger, one appliance contained in it, one
  *    overlapping its end, one following it); the rest are noise appliances.
  *    Values are watts, On iff ≥ 0.05 as in the paper.
  *  - city: 5-state weather walks whose first four series are driven to
  *    extremes by storm episodes, 4-state collision-severity walks raised by
  *    storms, and 5-state noise walks. Values are the state indices.
  *
  * Sequence `i` occupies slots `[i·slots, (i+1)·slots)`, so splitting with
  * `seqLen = slots` and no overlap recovers the generated blocks.
  *
  * The random content of each shape comes from one fixed base seed, so that
  * every run mines a database of the same difficulty: how much work the
  * miners do depends strongly on the sample (at (20,20) the candidate counts
  * of two City-like samples of 40 sequences differ by up to 40 %), and that
  * spread would hide the program's own. The run's seed reorders the
  * sequences and renames the series within each role. That changes the
  * bytes read, event ids, hash layouts and iteration orders, but not the
  * patterns to be found or their supports.
  */
object Inputs {

  private val BaseSeed = 20211L

  final case class Raw(rows: Array[(String, Long, Double)]) {
    def count: Int = rows.length

    /** SHA-256 over the rows in generation order: two runs mined identical
      * inputs iff their fingerprints are equal.
      */
    def sha256: String = {
      val md = MessageDigest.getInstance("SHA-256")
      val sb = new java.lang.StringBuilder
      rows.foreach { case (s, t, v) =>
        sb.setLength(0)
        sb.append(s).append(',').append(t).append(',').append(java.lang.Double.toString(v)).append('\n')
        md.update(sb.toString.getBytes("UTF-8"))
      }
      md.digest().map(b => f"${b & 0xff}%02x").mkString
    }

    /** Writes the rows as Parquet, one file per slice, in generation order. */
    def writeParquet(spark: SparkSession, path: String, slices: Int): Unit = {
      import spark.implicits._
      spark.sparkContext.parallelize(rows.toSeq, slices).toDF("series", "t", "value")
        .write.mode("overwrite").parquet(path)
    }
  }

  private final class Rng(seed: Long) {
    private val r = new SplittableRandom(seed)
    def int(n: Int): Int = r.nextInt(n)
    def chance(p: Double): Boolean = r.nextDouble() < p
    def double(): Double = r.nextDouble()

    /** `round(p·n)` trues in random positions. */
    def exactly(n: Int, p: Double): Array[Boolean] =
      shuffle(IndexedSeq.tabulate(n)(_ < math.round(p * n))).toArray

    def shuffle[T](xs: IndexedSeq[T]): IndexedSeq[T] = {
      val a = xs.toBuffer
      for (i <- a.size - 1 to 1 by -1) { val j = int(i + 1); val x = a(i); a(i) = a(j); a(j) = x }
      a.toIndexedSeq
    }
  }

  private def on(grid: Array[Boolean], from: Int, until: Int): Unit =
    for (i <- math.max(0, from) until math.min(grid.length, until)) grid(i) = true

  def energy(nSeqs: Int, nSeries: Int, slots: Int, seed: Long): Raw = {
    require(nSeries >= 4, "energy needs at least one cascade group of four series")
    val rng = new Rng(BaseSeed)
    val groups = math.max(1, nSeries * 3 / 16)
    val cascade = Array.fill(groups)(rng.exactly(nSeqs, 0.95))
    val blocks = Array.tabulate(nSeqs) { seq =>
      val grid = Array.fill(nSeries, slots)(false)
      for (g <- 0 until groups) {
        val Seq(trigger, contained, overlap, follow) = (0 until 4).map(g * 4 + _)
        if (cascade(g)(seq)) {
          val s = 2 + rng.int(slots / 2)
          val e = s + 6 + rng.int(4)
          on(grid(trigger), s, e)
          if (rng.chance(0.95)) on(grid(contained), s + 1, e - 1 - rng.int(2))
          if (rng.chance(0.90)) on(grid(overlap), e - 2, e + 2 + rng.int(3))
          if (rng.chance(0.80)) on(grid(follow), e + 1 + rng.int(2), e + 3 + rng.int(3))
          // the follower is also used during the trigger, which keeps its
          // slot-wise mutual information with the group high
          if (rng.chance(0.60)) on(grid(follow), s + 2 + rng.int(e - s - 3), s + 4 + rng.int(e - s - 3))
        }
        // sporadic unrelated use keeps confidences below 1
        for (v <- Seq(trigger, contained, overlap, follow) if rng.chance(0.25)) {
          val a = rng.int(slots)
          on(grid(v), a, a + 1 + rng.int(4))
        }
      }
      for (v <- groups * 4 until nSeries; _ <- 0 to rng.int(3)) {
        val a = rng.int(slots)
        on(grid(v), a, a + 1 + rng.int(4))
      }
      grid.map(_.map(b => if (b) 0.2 + 2.0 * rng.double() else 0.04 * rng.double()))
    }
    relabel(blocks, (0 until nSeries).map(v => f"A$v%02d"), Seq(0 until nSeries), seed)
  }

  /** Number of states of the city series (weather and noise; collision uses 4). */
  val CityStates = 5

  def city(nSeqs: Int, nSeries: Int, slots: Int, seed: Long): Raw = {
    require(nSeries >= 8, "city needs storm-driven weather, collision and noise series")
    val rng = new Rng(BaseSeed)
    val nWeather = math.max(4, nSeries * 5 / 12)
    val nCollision = math.max(2, nSeries / 4)
    val nNoise = nSeries - nWeather - nCollision

    // Sticky walk within [lo, hi]: stays put three times in four.
    def walk(lo: Int, hi: Int): Array[Int] = {
      var cur = lo + rng.int(hi - lo + 1)
      Array.fill(slots) {
        val d = rng.double()
        cur = math.max(lo, math.min(hi, cur + (if (d < 0.125) -1 else if (d < 0.25) 1 else 0)))
        cur
      }
    }

    val storms = rng.exactly(nSeqs, 0.40)
    val struck = rng.exactly(nSeqs, 0.85)
    val blocks = Array.tabulate(nSeqs) { seq =>
      val storm = storms(seq)
      val start = if (storm) 4 + rng.int(slots / 2) else 0
      val len = if (storm) 8 + rng.int(6) else 0
      val weather = Array.fill(nWeather)(walk(0, 2))
      if (storm) for (w <- 0 until 4; i <- start until math.min(slots, start + len))
        weather(w)(i) = if (w < 2) 4 else 3 + rng.int(2)
      val collision = Array.fill(nCollision)(walk(0, 1))
      if (storm && struck(seq)) {
        val high = 4 + rng.int(3)
        for (c <- 0 until nCollision; i <- start + 3 until math.min(slots, start + 3 + high))
          collision(c)(i) = 3
      }
      val noise = Array.fill(nNoise)(walk(0, CityStates - 1))
      (weather ++ collision ++ noise).map(_.map(_.toDouble))
    }
    val names = (0 until nWeather).map(v => f"W$v%02d") ++ (0 until nCollision).map(v => f"V$v%02d") ++
      (0 until nNoise).map(v => f"N$v%02d")
    val roles = Seq(0 until nWeather, nWeather until nWeather + nCollision, nWeather + nCollision until nSeries)
    relabel(blocks, names, roles, seed)
  }

  /** Emits `blocks(seq)(series)(slot)` with the sequences in a seeded order
    * and the series names shuffled within each role.
    */
  private def relabel(blocks: Array[Array[Array[Double]]], names: IndexedSeq[String],
                      roles: Seq[Range], seed: Long): Raw = {
    val rng = new Rng(seed)
    val name = new Array[String](names.size)
    for (r <- roles) r.zip(rng.shuffle(r.toIndexedSeq)).foreach { case (v, to) => name(v) = names(to) }
    val slots = blocks.head.head.length
    val out = Array.newBuilder[(String, Long, Double)]
    for ((b, seq) <- rng.shuffle(blocks.toIndexedSeq).zipWithIndex; v <- b.indices; i <- 0 until slots)
      out += ((name(v), seq.toLong * slots + i, b(v)(i)))
    Raw(out.result())
  }
}
