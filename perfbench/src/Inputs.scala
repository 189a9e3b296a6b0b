package perfbench

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.linalg.Dense

/** Workload inputs, generated on the driver from the workload seed alone.
  *
  * The graph follows the §5 planted-block model of
  * `repro.graphgen.PlantedGraph`: nodes get classes in contiguous ranges
  * (uniform α), each unordered class pair gets an edge budget
  * ∝ (α_c·H_cd + α_d·H_dc)/2, and endpoints are drawn by the power-law
  * inverse CDF rank = ⌊size·u^(1/(1−γ))⌋. Self-loops and duplicates are
  * dropped. Seeds are a stratified sample of ⌈max(1, round(f·n_c))⌉ nodes
  * per class, as in `repro.eval.Accuracy.sampleSeeds`.
  *
  * Unlike the program's generators, nothing here depends on Spark's
  * partitioning, so the same seed gives the same inputs on any core count.
  *
  * @param src   canonical undirected edges (src < dst), sorted, unique
  * @param cls   class of each node 0..n−1
  * @param seeds seed node ids, sorted
  */
final case class Inputs(n: Int, k: Int, src: Array[Int], dst: Array[Int], cls: Array[Int], seeds: Array[Int]) {

  def m: Int = src.length

  /** n, m and order-independent hashes of the edge set and the seed set. */
  def fingerprint: String = {
    val edgeHash = Inputs.hash(Iterator.range(0, m).map(i => src(i).toLong * n + dst(i)))
    val seedHash = Inputs.hash(seeds.iterator.map(s => s.toLong * k + cls(s)))
    f"n=$n m=$m k=$k seeds=${seeds.length} edges_hash=$edgeHash%016x seeds_hash=$seedHash%016x"
  }

  /** Class-pair counts of directed edges between nodes in `members`:
    * M_cd = #{(i→j) ∈ W : i, j ∈ members, cls(i)=c, cls(j)=d}.
    */
  def classPairCounts(members: Array[Boolean]): Dense = {
    val out = new Array[Double](k * k)
    var i = 0
    while (i < m) {
      val a = src(i); val b = dst(i)
      if (members(a) && members(b)) {
        out(cls(a) * k + cls(b)) += 1
        out(cls(b) * k + cls(a)) += 1
      }
      i += 1
    }
    new Dense(k, k, out)
  }

  /** Sketch reference M_NB⁽¹⁾ = Xᵀ·W·X over the seed nodes. */
  def seedPairCounts: Dense = {
    val isSeed = new Array[Boolean](n)
    seeds.foreach(isSeed(_) = true)
    classPairCounts(isSeed)
  }

  /** Gold standard GS: the row-normalized M⁽¹⁾ at f = 1 (§5.3). */
  def goldStandard: Dense = classPairCounts(Array.fill(n)(true)).rowNormalized

  /** ρ(W) by power iteration from the all-ones vector on non-isolated
    * nodes, run until the estimate stops changing. For symmetric W the
    * estimates ‖W·v_t‖ never decrease, so this bounds from above what
    * any fixed number of the same iterations can return.
    */
  def spectralRadius(tol: Double = 1e-13, maxIters: Int = 5000): Double = {
    var v = new Array[Double](n)
    var i = 0
    while (i < m) { v(src(i)) = 1.0; v(dst(i)) = 1.0; i += 1 }
    var lambda = 0.0
    var it = 0
    var done = false
    while (!done && it < maxIters) {
      val w = new Array[Double](n)
      i = 0
      while (i < m) { w(src(i)) += v(dst(i)); w(dst(i)) += v(src(i)); i += 1 }
      val norm = math.sqrt(w.foldLeft(0.0)((a, x) => a + x * x))
      if (norm == 0.0) return 0.0
      done = math.abs(norm - lambda) <= tol * norm
      lambda = norm
      v = w.map(_ / norm)
      it += 1
    }
    lambda
  }

  /** The inputs as Spark tables, cached: undirected edges (src, dst),
    * ground truth (node, cls) and seed labels (node, cls).
    */
  def load(spark: SparkSession): (DataFrame, DataFrame, DataFrame) = {
    import spark.implicits._
    val edges = Iterator.range(0, m).map(i => (src(i).toLong, dst(i).toLong)).toSeq.toDF("src", "dst").cache()
    val truth = Iterator.range(0, n).map(i => (i.toLong, cls(i))).toSeq.toDF("node", "cls").cache()
    val seedDf = seeds.toSeq.map(i => (i.toLong, cls(i))).toDF("node", "cls").cache()
    edges.count(); truth.count(); seedDf.count()
    (edges, truth, seedDf)
  }
}

object Inputs {

  /** Planted-block graph with power-law(γ) degrees and a stratified seed
    * sample of fraction f, all drawn from `seed`.
    */
  def planted(n: Int, m: Long, k: Int, h: Dense, gamma: Double, f: Double, seed: Long): Inputs = {
    val rnd = new SplittableRandom(seed)
    val sizes = Array.fill(k)(n / k)
    sizes(k - 1) += n - sizes.sum
    val offsets = sizes.scanLeft(0)(_ + _)
    val pairs = for { c <- 0 until k; d <- c until k } yield (c, d)
    // Uniform α: the budget weight of pair (c, d) is H_cc or H_cd + H_dc.
    val rawW = pairs.map { case (c, d) => if (c == d) h(c, c) else h(c, d) + h(d, c) }
    val budgets = rawW.map(w => math.round(m * w / rawW.sum))
    def rank(size: Int): Int =
      math.min(size - 1, math.floor(math.pow(rnd.nextDouble(), 1.0 / (1.0 - gamma)) * size).toInt)

    val keys = new Array[Long](budgets.sum.toInt)
    var drawn = 0
    for (((c, d), cnt) <- pairs.zip(budgets); _ <- 0L until cnt) {
      val a = offsets(c) + rank(sizes(c))
      val b = offsets(d) + rank(sizes(d))
      keys(drawn) = if (a == b) -1L else math.min(a, b).toLong * n + math.max(a, b)
      drawn += 1
    }
    java.util.Arrays.sort(keys)
    val unique = keys.iterator.filter(_ >= 0).distinct.toArray // sorted input: distinct keeps order
    val cls = Array.tabulate(n)(i => offsets.lastIndexWhere(_ <= i).min(k - 1))

    val seeds = (0 until k).flatMap { c =>
      val members = Array.range(offsets(c), offsets(c + 1))
      val take = math.max(1, math.round(f * members.length).toInt)
      for (i <- 0 until take) { // partial Fisher–Yates
        val j = i + rnd.nextInt(members.length - i)
        val t = members(i); members(i) = members(j); members(j) = t
      }
      members.take(take)
    }.sorted.toArray

    Inputs(n, k, unique.map(e => (e / n).toInt), unique.map(e => (e % n).toInt), cls, seeds)
  }

  /** Order-independent 64-bit hash of a set of longs (sum of mixed values). */
  def hash(xs: Iterator[Long]): Long = xs.foldLeft(0L) { (acc, x) =>
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    acc + (z ^ (z >>> 31))
  }
}
