package repro.core

import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.rdd.{RDD, UnionRDD}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ByteType, IntegerType, LongType, ShortType}
import org.apache.spark.storage.StorageLevel
import repro.linalg.Dense

/** An undirected graph on nodes 0..n−1, held once: its symmetric 0/1
  * adjacency matrix W as persisted CSR blocks on the executors, with no
  * self-loops or duplicate edges ([[GraphOps.fromUndirected]] builds one).
  */
final class SparseGraph(val n: Long, val adjacency: RDD[CsrBlock]) {

  /** W as a (src: Long, dst: Long) DataFrame, every edge in both
    * directions: a view of [[adjacency]], flattened block by block.
    */
  lazy val edges: DataFrame = SparkSession.active.createDataFrame(adjacency.flatMap(b =>
    for (r <- b.nodes.indices.iterator; e <- b.offsets(r) until b.offsets(r + 1)) yield (b.neighbours(e).toLong, b.nodes(r).toLong)))
    .toDF("src", "dst")

  /** Number of undirected edges m = |E|: half the sum of [[degrees]], so
    * it starts no job once the degrees are known.
    */
  lazy val m: Long = (degrees.sum / 2).toLong

  /** Node degrees on the driver, n entries (0 for an isolated node): the
    * CSR row lengths, W·1, with one job ([[GraphOps.runJob]]) that sends
    * each block's nodes and offsets.
    */
  lazy val degrees: Array[Double] = {
    val out = GraphOps.zeros(n, 1).data
    GraphOps.runJob(adjacency)((_, blocks) => blocks.map(b => (b.nodes, b.offsets)).toArray) { (_, rows) =>
      for ((nodes, offsets) <- rows; r <- nodes.indices) out(nodes(r)) += offsets(r + 1) - offsets(r)
    }
    out
  }

  /** Spectral radius ρ(W) ([[GraphOps.spectralRadius]], 25 iterations),
    * computed once per graph: LinBP and Holdout read it here.
    */
  lazy val rho: Double = GraphOps.spectralRadius(this)
}

object SparseGraph {

  /** The graph of a (src, dst) table with every edge in both directions,
    * such as [[SparseGraph.edges]]; the first job that reads it builds it,
    * and fails there on a node id that is null or outside [0, n).
    */
  def apply(n: Long, edges: DataFrame): SparseGraph = new SparseGraph(n, GraphOps.adjacency(edges, n))
}

/** One edge partition's rows of W in CSR form: node ``nodes(r)`` has the
  * neighbours ``neighbours(offsets(r) until offsets(r + 1))``, in
  * ascending order.
  */
final case class CsrBlock(nodes: Array[Int], offsets: Array[Int], neighbours: Array[Int])

/** The function of one Spark job: ``f`` applied to a partition's index and
  * rows. A named class rather than a lambda, so that Spark's closure
  * cleaner, which re-reads and parses the class file that declares a lambda
  * every time it is handed one, passes it by ([[GraphOps.runJob]]).
  */
private[core] final class Task[T, U](f: (Int, Iterator[T]) => U) extends ((TaskContext, Iterator[T]) => U) with Serializable {
  def apply(context: TaskContext, rows: Iterator[T]): U = f(context.partitionId(), rows)
}

/** (node, cls) labels on the driver: ``nodes(i)`` has class ``classes(i)``,
  * every node in [0, n) and every class in [0, k).
  */
final case class Labels(n: Long, k: Int, nodes: Array[Int], classes: Array[Int]) {

  /** One-hot n×k matrix X: row e_cls for a labeled node, zero elsewhere. */
  def oneHot: Dense = indicator(1.0, 0.0)

  /** Centered label matrix X̃: a node labeled c gets the residual row
    * e_c − 1/k (Section 3.1); unlabeled nodes stay all-zero.
    */
  def centeredOneHot: Dense = indicator(1.0 - 1.0 / k, -1.0 / k)

  private def indicator(on: Double, off: Double): Dense = {
    val out = GraphOps.zeros(n, k)
    for (i <- nodes.indices) {
      java.util.Arrays.fill(out.data, nodes(i) * k, nodes(i) * k + k, off)
      out.data(nodes(i) * k + classes(i)) = on
    }
    out
  }

  /** The labels at positions ``rows``. */
  def select(rows: Seq[Int]): Labels = copy(nodes = rows.map(nodes).toArray, classes = rows.map(classes).toArray)
}

/** Sparse linear algebra: W on the executors, n×c matrices on the driver.
  *
  * W·F ([[multiply]]) is the one operation that touches the graph: F is
  * broadcast, each CSR block of W sums its rows' neighbour rows, and the
  * driver scatters each block's rows into the result as they arrive. One
  * job, no shuffle. Every iterate (ρ(W)'s vector, the sketch's path
  * counts, LinBP's beliefs) is a [[Dense]] on the driver, and the row-wise
  * algebra around a hop (F·H, (D − c·I)·F, sums) is array arithmetic there,
  * so no constant of an iteration enters a Spark plan.
  */
object GraphOps {

  /** The largest JVM array length (HotSpot reserves a few header words). */
  private val MaxArrayLength: Long = Int.MaxValue - 8

  /** One job over every partition of ``rdd``: ``task`` runs on each
    * partition's index and rows, and ``handle`` gets each partition's index
    * and result on the driver as it arrives, one call at a time.
    *
    * This is how every job of an operation starts. `rdd.map(…).collect()`
    * would hand Spark two lambdas, and Spark's closure cleaner re-reads and
    * parses the class file declaring each (for `collect`, `RDD.class`) on
    * every call: an empty job cost 11.6 ms that way against 3.0 ms through
    * a [[Task]], which the cleaner passes by (4 cores, `local[4]`).
    */
  private[core] def runJob[T, U: ClassTag](rdd: RDD[T])(task: (Int, Iterator[T]) => U)(handle: (Int, U) => Unit): Unit =
    rdd.sparkContext.runJob(rdd, new Task(task), handle)

  /** Materialize and truncate lineage — required inside iterative loops,
    * where each step references the previous one (or two) results.
    */
  def materialize(df: DataFrame): DataFrame = df.localCheckpoint(true)

  /** An n×c driver matrix of zeros, or a clear failure when its n·c
    * entries do not fit one JVM array.
    */
  def zeros(n: Long, c: Int): Dense = {
    require(n * c <= MaxArrayLength,
      s"an n×c = $n×$c matrix does not fit one JVM array (at most $MaxArrayLength entries)")
    Dense.zeros(n.toInt, c)
  }

  /** A uniform draw in [0, 1) for the row identified by ``key`` under
    * ``seed``: the top 53 bits of Spark's xxhash64(seed, key) (hash seed
    * 42, each input hashed as its own type), times 2⁻⁵³. It depends only on
    * the seed and the row's identity, so a row draws the same number
    * however the rows are partitioned; `rand(seed)` instead seeds every
    * partition with seed + partition index, and its draws follow the core
    * count.
    */
  def uniform(seed: Long, key: Long): Double = unit(XXH64.hashLong(key, XXH64.hashLong(seed, 42L)))

  /** The draw keyed by (split, node), the split hashed as an Int: it is
    * independent of [[uniform]](seed, node) under the same seed.
    */
  def uniform(seed: Long, split: Int, node: Long): Double = unit(XXH64.hashLong(node, XXH64.hashInt(split, XXH64.hashLong(seed, 42L))))

  private def unit(hash: Long): Double = (hash >>> 11).toDouble * (1.0 / (1L << 53))

  /** The (node, cls) rows of ``labels``, collected. A node id outside
    * [0, n) or a class id outside [0, k) fails here, before it could land
    * in the wrong row or column.
    */
  def collectLabels(labels: DataFrame, n: Long, k: Int): Labels = labelsOf(collectLabelRows(Seq(labels)).head, n, k)

  /** The (node, cls) rows of every table of ``tables``, each id a Long or
    * null ([[idColumn]]), read with at most one job through each table's
    * own planned query (its memoized `queryExecution`), so a call plans
    * nothing: a table held on the driver (a local relation) is read without
    * a job, the others as one union of their row RDDs ([[runJob]]), whose
    * partitions are each table's in turn. The ids are read inside the task,
    * since a row RDD reuses its row objects, and every table's rows come
    * back in partition order.
    */
  def collectLabelRows(tables: Seq[DataFrame]): Seq[Array[(Any, Any)]] = {
    val plans = tables.map(_.queryExecution)
    val pairs = tables.map { t =>
      val (node, cls) = (idColumn(t, "node"), idColumn(t, "cls"))
      (r: InternalRow) => (node(r), cls(r))
    }
    val remote = plans.indices.filterNot(i => plans(i).executedPlan.isInstanceOf[LocalTableScanExec])
    val rdds = remote.map(plans(_).toRdd)
    // The table of every partition of the union.
    val owner = remote.zip(rdds).flatMap { case (i, rdd) => Seq.fill(rdd.getNumPartitions)(i) }.toArray
    val parts = new Array[Array[(Any, Any)]](owner.length)
    if (remote.nonEmpty) {
      val readers = owner.map(pairs)
      runJob(new UnionRDD(plans.head.sparkSession.sparkContext, rdds))((p, rows) => rows.map(readers(p)).toArray)(parts(_) = _)
    }
    plans.indices.map(i =>
      if (remote.contains(i)) owner.indices.filter(owner(_) == i).flatMap(parts(_)).toArray
      else plans(i).executedPlan.executeCollect().map(pairs(i)))
  }

  /** A reader of the integral id column ``name`` of ``t``'s rows, found
    * with the session's resolver: a Long, Int, Short or Byte value as a
    * Long, and null as null. Any other type fails here, naming the column,
    * instead of being cast into an id.
    */
  def idColumn(t: DataFrame, name: String): InternalRow => Any = {
    val output = t.queryExecution.analyzed.output
    val i = output.indexWhere(a => t.sparkSession.sessionState.conf.resolver(a.name, name))
    require(i >= 0, s"no id column `$name` among ${output.map(_.name).mkString("(", ", ", ")")}")
    val read: InternalRow => Long = output(i).dataType match {
      case LongType => _.getLong(i)
      case IntegerType => _.getInt(i).toLong
      case ShortType => _.getShort(i).toLong
      case ByteType => _.getByte(i).toLong
      case other => throw new IllegalArgumentException(
        s"id column `$name` has type ${other.simpleString}, not long, int, short or byte")
    }
    r => if (r.isNullAt(i)) null else read(r)
  }

  /** ``id`` as a node id, failing when it is null or outside [0, n). */
  def nodeId(id: Any, n: Long): Long = id match {
    case v: Long if v >= 0 && v < n => v
    case _ => throw new IllegalArgumentException(s"node id outside [0,$n): $id")
  }

  /** ``rows`` of (node, cls) ids as [[Labels]], failing on a node id
    * outside [0, n) or a class id outside [0, k), null included.
    */
  def labelsOf(rows: Array[(Any, Any)], n: Long, k: Int): Labels = {
    val nodes = new Array[Int](rows.length)
    val classes = new Array[Int](rows.length)
    for (((node, cls), i) <- rows.zipWithIndex) {
      classes(i) = cls match {
        case c: Long if c >= 0 && c < k => c.toInt
        case _ => throw new IllegalArgumentException(s"class id outside [0,$k): $cls")
      }
      nodes(i) = nodeId(node, n).toInt
    }
    Labels(n, k, nodes, classes)
  }

  /** W as CSR blocks, one per partition of ``edges``, persisted.
    *
    * W is symmetric, so the rows of W are the edges grouped by ``dst``:
    * on edges hash-partitioned by ``dst`` ([[fromUndirected]]) each block
    * holds whole rows and is built by a narrow pass over its partition, with
    * no shuffle. (dst, src) are read from the table's own planned query, and
    * an id that is null or outside [0, n) fails the pass ([[nodeId]]).
    * Neighbours are sorted and kept once, so a row's sum runs in the same
    * order however the edges were read.
    */
  def adjacency(edges: DataFrame, n: Long): RDD[CsrBlock] = {
    val (dst, src) = (idColumn(edges, "dst"), idColumn(edges, "src"))
    edges.queryExecution.toRdd.mapPartitions { rows =>
      // (row, neighbour) packed into one long: sorting it sorts by row, then neighbour.
      val keys = rows.map(r => (nodeId(dst(r), n) << 32) | nodeId(src(r), n)).toArray
      java.util.Arrays.sort(keys)
      val nodes = Array.newBuilder[Int]
      val offsets = Array.newBuilder[Int]
      val neighbours = Array.newBuilder[Int]
      for (e <- keys.indices if e == 0 || keys(e) != keys(e - 1)) {
        if (e == 0 || (keys(e) >>> 32) != (keys(e - 1) >>> 32)) { nodes += (keys(e) >>> 32).toInt; offsets += neighbours.length }
        neighbours += keys(e).toInt
      }
      offsets += neighbours.length
      Iterator.single(CsrBlock(nodes.result(), offsets.result(), neighbours.result()))
    }.setName("adjacency").persist(StorageLevel.MEMORY_ONLY)
  }

  /** W·F for an n×c matrix ``f`` on the driver — one hop of message
    * passing, where every node sums its neighbours' rows of ``f``.
    *
    * One job over [[SparseGraph.adjacency]] ([[runJob]]): ``f`` is
    * broadcast, each CSR block sums its rows, and the driver scatters each
    * block's sums into the result as they arrive (a node in no block has no
    * neighbour and gets a zero row). A row lies in one block, so the order
    * in which blocks arrive changes no sum. The broadcast is destroyed
    * after the job.
    */
  def multiply(g: SparseGraph, f: Dense): Dense = {
    require(f.rows == g.n, s"F has ${f.rows} rows, the graph ${g.n} nodes")
    val c = f.cols
    val out = zeros(g.n, c)
    val shared = g.adjacency.sparkContext.broadcast(f.data)
    try runJob(g.adjacency) { (_, blocks) =>
      val x = shared.value
      blocks.map { b =>
        val sums = new Array[Double](b.nodes.length * c)
        var r = 0
        while (r < b.nodes.length) {
          var e = b.offsets(r)
          while (e < b.offsets(r + 1)) {
            val from = b.neighbours(e) * c
            var j = 0
            while (j < c) { sums(r * c + j) += x(from + j); j += 1 }
            e += 1
          }
          r += 1
        }
        (b.nodes, sums)
      }.toArray
    } { (_, rows) =>
      for ((nodes, sums) <- rows; r <- nodes.indices; j <- 0 until c) out.data(nodes(r) * c + j) += sums(r * c + j)
    }
    finally shared.destroy()
    out
  }

  /** ``ms`` side by side: the n×(c₁ + c₂ + …) matrix [m₁ | m₂ | …]. */
  def hcat(ms: Seq[Dense]): Dense = {
    val n = ms.head.rows
    require(ms.forall(_.rows == n), "every block must have the same rows")
    val c = ms.map(_.cols).sum
    val out = zeros(n, c)
    var at = 0
    for (m <- ms) {
      for (i <- 0 until n) System.arraycopy(m.data, i * m.cols, out.data, i * c + at, m.cols)
      at += m.cols
    }
    out
  }

  /** Columns ``from until from + c`` of ``m``. */
  def columns(m: Dense, from: Int, c: Int): Dense = {
    val out = zeros(m.rows, c)
    for (i <- 0 until m.rows) System.arraycopy(m.data, i * m.cols + from, out.data, i * c, c)
    out
  }

  /** argmax over classes on the driver: every node 0..n−1 of the n×k
    * beliefs ``f`` labeled with the index of its row's largest entry,
    * k = f.cols. Ties break toward the smallest class, so results are
    * deterministic.
    */
  def argmaxLabels(f: Dense): Labels = {
    val classes = Array.tabulate(f.rows) { i =>
      var best = 0
      for (j <- 1 until f.cols if f(i, j) > f(i, best)) best = j
      best
    }
    Labels(f.rows, f.cols, Array.range(0, f.rows), classes)
  }

  /** Spectral radius ρ(W) by power iteration (symmetric W); 0.0 for a
    * graph without edges.
    *
    * The first product W·1 is the degree vector; every later one is one
    * [[multiply]] of the previous product divided by its own norm, so the
    * iterate keeps unit scale however many products run. The estimate after
    * t products is the norm of the last one.
    */
  def spectralRadius(g: SparseGraph, iters: Int = 25): Double = {
    def norm(v: Dense): Double = math.sqrt(v.data.foldLeft(0.0)((a, x) => a + x * x))
    var v = new Dense(g.degrees.length, 1, g.degrees)
    var lambda = norm(v)
    for (_ <- 2 to iters if lambda > 0) {
      v = multiply(g, v.scale(1 / lambda))
      lambda = norm(v)
    }
    lambda
  }

  /** Explicit ℓ-th adjacency power as a (src, dst, cnt) path-count table.
    *
    * This is the *naive* evaluation strategy the paper warns against
    * (§4.6): the intermediate result densifies as ~d^(ℓ−1)·m entries. Kept
    * as the comparison arm of the factorized-summation experiment (T5).
    */
  def explicitPower(edges: DataFrame, l: Int): DataFrame = {
    require(l >= 1, "power must be >= 1")
    var p = edges.withColumn("cnt", lit(1.0))
    for (_ <- 2 to l) {
      p = materialize(
        p.join(
            edges.withColumnRenamed("src", "mid").withColumnRenamed("dst", "dst2"),
            col("dst") === col("mid"))
          .groupBy(col("src"), col("dst2").as("dst"))
          .agg(sum("cnt").as("cnt")))
    }
    p
  }

  /** Build a SparseGraph from an undirected edge list (one direction): one
    * narrow pass over the table's own planned query reads (src, dst)
    * ([[idColumn]]), checks the node ids ([[nodeId]]), drops self-loops and
    * emits both directions; one hash shuffle by ``dst`` into
    * ``spark.sql.shuffle.partitions`` partitions capped at the default
    * parallelism (every hop runs one task per partition) follows; and
    * [[adjacency]] builds the blocks, dropping duplicate edges. The blocks
    * are built here, so a bad id fails this call.
    */
  def fromUndirected(spark: SparkSession, n: Long, undirected: DataFrame): SparseGraph = {
    val (src, dst) = (idColumn(undirected, "src"), idColumn(undirected, "dst"))
    val both = undirected.queryExecution.toRdd.flatMap { r =>
      val (a, b) = (nodeId(src(r), n), nodeId(dst(r), n))
      if (a == b) Nil else Seq((a, b), (b, a))
    }
    val parts = math.min(spark.conf.get("spark.sql.shuffle.partitions").toInt, spark.sparkContext.defaultParallelism)
    val g = SparseGraph(n, spark.createDataFrame(both).toDF("src", "dst").repartition(parts, col("dst")))
    g.adjacency.count()
    g
  }
}
