package repro.core

import java.io.{ObjectInputStream, ObjectOutputStream}
import java.nio.{ByteBuffer, ByteOrder}
import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.rdd.{RDD, UnionRDD}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ByteType, IntegerType, LongType, ShortType}
import repro.linalg.Dense

/** An undirected graph on nodes 0..n−1, held once: its symmetric 0/1
  * adjacency matrix W as locally checkpointed CSR blocks on the executors,
  * with no self-loops or duplicate edges ([[GraphOps.fromUndirected]]
  * builds one).
  */
final class SparseGraph(val n: Long, val adjacency: RDD[CsrBlock]) {

  /** W as a (src: Long, dst: Long) DataFrame, every edge in both
    * directions: a view of [[adjacency]], flattened block by block.
    */
  lazy val edges: DataFrame = SparkSession.active.createDataFrame(adjacency.flatMap(_.edges)).toDF("src", "dst")

  /** Number of undirected edges m = |E|: half the sum of [[degrees]], so
    * it starts no job once the degrees are known.
    */
  lazy val m: Long = (degrees.sum / 2).toLong

  /** Node degrees on the driver, n entries (0 for an isolated node): the
    * CSR row lengths, W·1, with one job ([[GraphOps.runJob]]) that sends
    * each block's nodes and row lengths, scattered as a hop's sums are.
    */
  lazy val degrees: Array[Double] = {
    val out = GraphOps.zeros(n, 1)
    GraphOps.runJob(adjacency) { (_, blocks) =>
      blocks.map(b => new Packed(b.nodes, Array.tabulate(b.nodes.length)(r => (b.offsets(r + 1) - b.offsets(r)).toDouble))).toArray
    }(GraphOps.scatter(out))
    out.data
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
final case class CsrBlock(nodes: Array[Int], offsets: Array[Int], neighbours: Array[Int]) {

  /** Every (neighbour, node) pair of the block, row by row: one iterator
    * over the arrays, with no collection per row.
    */
  def edges: Iterator[(Long, Long)] = new Iterator[(Long, Long)] {
    private var r = 0
    private var e = 0
    def hasNext: Boolean = e < neighbours.length
    def next(): (Long, Long) = {
      while (e >= offsets(r + 1)) r += 1
      e += 1
      (neighbours(e - 1).toLong, nodes(r).toLong)
    }
  }
}

/** The integral id column at ``ordinal`` of a table's rows, ``width``
  * bytes wide (8, 4, 2 or 1: long, int, short or byte), read as a long
  * with no boxing ([[GraphOps.idColumn]] finds it).
  */
private[core] final class IdColumn(ordinal: Int, width: Int) extends Serializable {

  /** The id of ``r`` as a ``what`` id (node or class), failing when it is
    * null or outside [0, bound): the one check of every edge and label id.
    */
  def within(r: InternalRow, what: String, bound: Long): Long = {
    if (r.isNullAt(ordinal)) throw GraphOps.outside(what, bound, null)
    val id = width match {
      case 8 => r.getLong(ordinal)
      case 4 => r.getInt(ordinal)
      case 2 => r.getShort(ordinal)
      case _ => r.getByte(ordinal)
    }
    if (id < 0 || id >= bound) throw GraphOps.outside(what, bound, id)
    id
  }
}

/** An int array and a double array whose Java serialized form is their raw
  * bytes, copied in bulk through a 64 KB buffer. ObjectOutputStream writes
  * an int[] or a double[] one element at a time, and until the JIT has
  * compiled that loop it is a hop's largest cost: [[GraphOps.multiply]]
  * broadcasts F and returns each block's sums in this form, the degrees
  * come back in it, and so do a label read's ids.
  */
private[core] final class Packed(@transient var ints: Array[Int], @transient var doubles: Array[Double]) extends Serializable {
  import Packed.Chunk

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.writeInt(ints.length)
    out.writeInt(doubles.length)
    val buffer = Packed.buffer
    for (i <- ints.indices by Chunk) {
      val m = math.min(Chunk, ints.length - i)
      buffer.asIntBuffer().put(ints, i, m)
      out.write(buffer.array(), 0, 4 * m)
    }
    for (i <- doubles.indices by Chunk) {
      val m = math.min(Chunk, doubles.length - i)
      buffer.asDoubleBuffer().put(doubles, i, m)
      out.write(buffer.array(), 0, 8 * m)
    }
  }

  private def readObject(in: ObjectInputStream): Unit = {
    ints = new Array[Int](in.readInt())
    doubles = new Array[Double](in.readInt())
    val buffer = Packed.buffer
    for (i <- ints.indices by Chunk) {
      val m = math.min(Chunk, ints.length - i)
      in.readFully(buffer.array(), 0, 4 * m)
      buffer.asIntBuffer().get(ints, i, m)
    }
    for (i <- doubles.indices by Chunk) {
      val m = math.min(Chunk, doubles.length - i)
      in.readFully(buffer.array(), 0, 8 * m)
      buffer.asDoubleBuffer().get(doubles, i, m)
    }
  }
}

private[core] object Packed {

  /** Elements per bulk copy. */
  val Chunk = 8192

  private def buffer: ByteBuffer = ByteBuffer.allocate(8 * Chunk).order(ByteOrder.LITTLE_ENDIAN)
}

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

  /** Materialize ``df`` and truncate its lineage (a local checkpoint).
    * `explicitPower` calls it after every join, so a power's plan does not
    * grow with ℓ, and `PlantedGraph` on its labels; W's blocks are cut
    * by [[adjacency]] itself.
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

  /** The (node, cls) labels of ``labels``: [[collectLabels]] of one table. */
  def collectLabels(labels: DataFrame, n: Long, k: Int): Labels = collectLabels(Seq(labels), n, k).head

  /** The (node, cls) labels of every table of ``tables``, read with at most
    * one job through each table's own planned query (its memoized
    * `queryExecution`), so a call plans nothing: a table held on the driver
    * (a local relation) is read without a job, the others as one union of
    * their row RDDs ([[runJob]]), whose partitions are each table's in turn.
    * Both paths run the same loop ([[readLabels]]), inside the task on the
    * job path, since a row RDD reuses its row objects. A node id outside
    * [0, n) or a class id outside [0, k), null included, fails where it is
    * read ([[IdColumn.within]]), before it could land in the wrong row or
    * column; on the job path it fails the task, wrapped in Spark's
    * exception. Every table's labels come back in partition order.
    */
  def collectLabels(tables: Seq[DataFrame], n: Long, k: Int): Seq[Labels] = {
    val plans = tables.map(_.queryExecution)
    val columns = tables.map(t => (idColumn(t, "node"), idColumn(t, "cls")))
    val remote = plans.indices.filterNot(i => plans(i).executedPlan.isInstanceOf[LocalTableScanExec])
    val rdds = remote.map(plans(_).toRdd)
    // The table of every partition of the union.
    val owner = remote.zip(rdds).flatMap { case (i, rdd) => Seq.fill(rdd.getNumPartitions)(i) }.toArray
    val parts = new Array[Packed](owner.length)
    if (remote.nonEmpty) {
      val readers = owner.map(columns)
      runJob(new UnionRDD(plans.head.sparkSession.sparkContext, rdds))((p, rows) => readLabels(readers(p), n, k, rows))(parts(_) = _)
    }
    plans.indices.map { i =>
      val read =
        if (remote.contains(i)) owner.indices.filter(owner(_) == i).map(parts)
        else Seq(readLabels(columns(i), n, k, plans(i).executedPlan.executeCollect().iterator))
      val (nodes, classes) = read.map(p => p.ints.splitAt(p.ints.length / 2)).unzip
      Labels(n, k, Array.concat(nodes: _*), Array.concat(classes: _*))
    }
  }

  /** The (node, cls) ids of ``rows``, read by ``columns`` and checked
    * against [0, n) and [0, k), as one [[Packed]] whose ints are the nodes
    * followed by their classes.
    */
  private def readLabels(columns: (IdColumn, IdColumn), n: Long, k: Int, rows: Iterator[InternalRow]): Packed = {
    val (node, cls) = columns
    val (nodes, classes) = (new ArrayBuilder.ofInt, new ArrayBuilder.ofInt)
    while (rows.hasNext) {
      val r = rows.next()
      nodes += node.within(r, "node", n).toInt
      classes += cls.within(r, "class", k).toInt
    }
    new Packed(nodes.result() ++ classes.result(), Array.emptyDoubleArray)
  }

  /** The integral id column ``name`` of ``t``'s rows, found with the
    * session's resolver and read by ordinal as a long ([[IdColumn]]). A
    * column of any type but long, int, short or byte fails here, naming
    * the column, instead of being cast into an id.
    */
  private[core] def idColumn(t: DataFrame, name: String): IdColumn = {
    val output = t.queryExecution.analyzed.output
    val i = output.indexWhere(a => t.sparkSession.sessionState.conf.resolver(a.name, name))
    require(i >= 0, s"no id column `$name` among ${output.map(_.name).mkString("(", ", ", ")")}")
    output(i).dataType match {
      case LongType => new IdColumn(i, 8)
      case IntegerType => new IdColumn(i, 4)
      case ShortType => new IdColumn(i, 2)
      case ByteType => new IdColumn(i, 1)
      case other => throw new IllegalArgumentException(
        s"id column `$name` has type ${other.simpleString}, not long, int, short or byte")
    }
  }

  /** The failure of a ``what`` id (node or class) outside [0, ``bound``). */
  private[core] def outside(what: String, bound: Long, id: Any): IllegalArgumentException =
    new IllegalArgumentException(s"$what id outside [0,$bound): $id")

  /** W as CSR blocks, one per partition of ``edges``, locally
    * checkpointed.
    *
    * W is symmetric, so the rows of W are the edges grouped by ``dst``:
    * on edges hash-partitioned by ``dst`` ([[fromUndirected]]) each block
    * holds whole rows and is built by a narrow pass over its partition, with
    * no shuffle. (dst, src) are read from the table's own planned query, and
    * an id that is null or outside [0, n) fails the pass ([[IdColumn.within]]).
    * Neighbours are sorted and kept once, so a row's sum runs in the same
    * order however the edges were read.
    *
    * The first job that reads the blocks stores them (memory, spilling to
    * disk) and cuts their lineage, so a later job's task carries the blocks'
    * checkpoint alone, not the edge table's plan or its graph's lineage. A
    * block that is released or lost is not rebuilt: the job that needs it
    * fails, naming the missing block.
    */
  def adjacency(edges: DataFrame, n: Long): RDD[CsrBlock] = {
    val (dst, src) = (idColumn(edges, "dst"), idColumn(edges, "src"))
    edges.queryExecution.toRdd.mapPartitions { rows =>
      // (row, neighbour) packed into one long: sorting it sorts by row, then neighbour.
      val packed = new ArrayBuilder.ofLong
      while (rows.hasNext) {
        val r = rows.next()
        packed += (dst.within(r, "node", n) << 32) | src.within(r, "node", n)
      }
      val keys = packed.result()
      java.util.Arrays.sort(keys)
      val (nodes, offsets, neighbours) = (new ArrayBuilder.ofInt, new ArrayBuilder.ofInt, new ArrayBuilder.ofInt)
      var e = 0
      while (e < keys.length) {
        if (e == 0 || keys(e) != keys(e - 1)) {
          if (e == 0 || (keys(e) >>> 32) != (keys(e - 1) >>> 32)) { nodes += (keys(e) >>> 32).toInt; offsets += neighbours.length }
          neighbours += keys(e).toInt
        }
        e += 1
      }
      offsets += neighbours.length
      Iterator.single(CsrBlock(nodes.result(), offsets.result(), neighbours.result()))
    }.setName("adjacency").localCheckpoint()
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
    val shared = g.adjacency.sparkContext.broadcast(new Packed(Array.emptyIntArray, f.data))
    try runJob(g.adjacency) { (_, blocks) =>
      val x = shared.value.doubles
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
        new Packed(b.nodes, sums)
      }.toArray
    }(scatter(out))
    finally shared.destroy()
    out
  }

  /** The driver result handler of a job whose task returns one [[Packed]]
    * per CSR block: row r of a block, its c = ``out.cols`` doubles from
    * r·c on, is added into row ``ints(r)`` of ``out``.
    */
  private[core] def scatter(out: Dense)(partition: Int, blocks: Array[Packed]): Unit = {
    val c = out.cols
    for (b <- blocks) {
      var r = 0
      while (r < b.ints.length) {
        var j = 0
        while (j < c) { out.data(b.ints(r) * c + j) += b.doubles(r * c + j); j += 1 }
        r += 1
      }
    }
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
    * ([[idColumn]]), checks the node ids ([[IdColumn.within]]), drops self-loops and
    * emits both directions; one hash shuffle by ``dst`` into
    * ``spark.sql.shuffle.partitions`` partitions capped at the default
    * parallelism (every hop runs one task per partition) follows; and
    * [[adjacency]] builds the blocks, dropping duplicate edges. The blocks
    * are built here, so a bad id fails this call.
    */
  def fromUndirected(spark: SparkSession, n: Long, undirected: DataFrame): SparseGraph = {
    val (src, dst) = (idColumn(undirected, "src"), idColumn(undirected, "dst"))
    val both = undirected.queryExecution.toRdd.flatMap { r =>
      val a = src.within(r, "node", n)
      val b = dst.within(r, "node", n)
      if (a == b) Nil else Seq((a, b), (b, a))
    }
    val parts = math.min(spark.conf.get("spark.sql.shuffle.partitions").toInt, spark.sparkContext.defaultParallelism)
    val g = SparseGraph(n, spark.createDataFrame(both).toDF("src", "dst").repartition(parts, col("dst")))
    g.adjacency.count()
    g
  }
}
