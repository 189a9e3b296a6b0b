package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.linalg.Dense

/** An undirected graph held as a DataFrame of directed edge pairs.
  *
  * ``edges`` has columns (src: Long, dst: Long); every undirected edge
  * appears in both directions, there are no self-loops and no duplicates,
  * so W is the symmetric 0/1 adjacency matrix. Nodes are 0..n−1. Graphs
  * built by [[GraphOps.fromUndirected]] hold ``edges`` persisted and
  * hash-partitioned by ``dst``, the key every hop joins on.
  */
final case class SparseGraph(n: Long, edges: DataFrame) {

  /** Number of undirected edges m = |E|. */
  lazy val m: Long = edges.count() / 2

  /** Node degrees (node: Long, deg: Double); degree-0 nodes are absent.
    * W is symmetric, so degrees are counted per ``dst``, the key the edges
    * are partitioned by: no exchange.
    */
  lazy val degrees: DataFrame = GraphOps.materialize(
    edges.groupBy("dst").agg(count(lit(1)).cast("double").as("deg")).withColumnRenamed("dst", "node"))

  /** Spectral radius ρ(W) ([[GraphOps.spectralRadius]], 25 iterations),
    * computed once per graph: LinBP and Holdout read it here.
    */
  lazy val rho: Double = GraphOps.spectralRadius(this)
}

/** Distributed sparse linear algebra over the wide layout.
  *
  * An n×k matrix (beliefs F, label matrix X, path counts N) is a DataFrame
  * with one row per node, (node: Long, v0: Double, …, v{k−1}: Double);
  * absent nodes are zero rows. Row-wise algebra (F·H, (D − c·I)·F, sums) is
  * arithmetic over the k columns of a row, generated for the k at hand, so
  * it needs no join, UDF or shuffle, and every plan stays plain SQL that the
  * DuckDB oracle can check. Only W·F ([[multiply]]) moves data.
  */
object GraphOps {

  /** Materialize and truncate lineage — required inside iterative loops,
    * where each step references the previous one (or two) results.
    */
  def materialize(df: DataFrame): DataFrame = df.localCheckpoint(true)

  /** A uniform draw in [0, 1) for the row identified by ``key`` under
    * ``seed``: the top 53 bits of xxhash64(seed, key…), times 2⁻⁵³. It
    * depends only on the seed and the row's identity, so a row draws the
    * same number however the rows are partitioned; `rand(seed)` instead
    * seeds every partition with seed + partition index, and its draws
    * follow the core count. Keys of different lengths give independent
    * draws, so two uses that key the same rows stay independent under one
    * seed when one of them adds a column to its key.
    */
  def uniform(seed: Long, key: Column*): Column =
    shiftrightunsigned(xxhash64(lit(seed) +: key: _*), 11).cast("double") * lit(1.0 / (1L << 53))

  /** Names prefix0..prefix{k−1} of a wide matrix's value columns. */
  def names(k: Int, prefix: String = "v"): Seq[String] = (0 until k).map(j => s"$prefix$j")

  /** The value columns of a wide matrix, as one row of k columns. */
  def values(k: Int, prefix: String = "v"): Seq[Column] = names(k, prefix).map(col)

  /** Name a row of columns prefix0..prefix{k−1}. */
  def named(row: Seq[Column], prefix: String = "v"): Seq[Column] =
    row.zipWithIndex.map { case (c, j) => c.as(s"$prefix$j") }

  // --- row algebra: one n×k matrix row is a Seq of k columns -------------

  /** Elementwise sum of two rows. */
  def plus(a: Seq[Column], b: Seq[Column]): Seq[Column] = a.zip(b).map { case (x, y) => x + y }

  /** Elementwise difference a − b. */
  def minus(a: Seq[Column], b: Seq[Column]): Seq[Column] = a.zip(b).map { case (x, y) => x - y }

  /** Scalar (or per-row column) multiple. */
  def scale(a: Seq[Column], s: Column): Seq[Column] = a.map(_ * s)

  /** F·H — modulate a node's row by the k_in×k_out matrix H, whose entries
    * enter the plan as literals: (r·H)_j = Σ_i r_i·H(i, j).
    */
  def applyH(r: Seq[Column], h: Dense): Seq[Column] = {
    require(r.length == h.rows, s"row has ${r.length} columns, H has ${h.rows} rows")
    (0 until h.cols).map(j => r.indices.map(i => r(i) * lit(h(i, j))).reduce(_ + _))
  }

  /** (D − c·I)·F on one row: scale by (degree − c). */
  def diagScale(r: Seq[Column], deg: Column, c: Column): Seq[Column] = scale(r, deg - c)

  // --- n×k matrices -------------------------------------------------------

  /** ``cls`` itself, or a query error when it lies outside [0, k). */
  def checkedClass(cls: Column, k: Int): Column =
    when(cls.between(0, k - 1), cls).otherwise(raise_error(
      concat(lit(s"class id outside [0,$k): "), coalesce(cls.cast("string"), lit("null")))))

  /** One-hot n×k matrix X from (node, cls) labels: row e_cls. A class id
    * outside [0, k) fails the query that reads the matrix.
    */
  def oneHot(labels: DataFrame, k: Int): DataFrame = indicator(labels, k, 1.0, 0.0)

  /** Centered label matrix X̃: a node labeled c gets the residual row
    * e_c − 1/k (Section 3.1); unlabeled nodes stay absent (all-zero).
    */
  def centeredOneHot(labels: DataFrame, k: Int): DataFrame = indicator(labels, k, 1.0 - 1.0 / k, -1.0 / k)

  private def indicator(labels: DataFrame, k: Int, on: Double, off: Double): DataFrame = {
    val c = checkedClass(col("cls"), k)
    labels.select(col("node") +: named((0 until k).map(j => when(c === j, on).otherwise(off))): _*)
  }

  /** W·F — one hop of message passing: every node sums its neighbours'
    * rows of ``f``, all of whose columns but ``node`` are summed:
    * `edges ⋈ f on dst` → `groupBy src`.
    *
    * Each node's own rows of ``own`` ride along in the same aggregation
    * (merged column-wise by max, so frames with different columns combine
    * into one row), which spares a join of the result against the node's
    * previous state. Nodes with no neighbour in ``f`` sum to zero, and the
    * sums are declared non-null, so a hop's output has the same schema as a
    * frame built from non-null columns; nodes without an own row get nulls.
    * On edges from [[fromUndirected]] the join exchanges only ``f`` (the
    * hash-join build side), and the group-by only the partial sums.
    */
  def multiply(edges: DataFrame, f: DataFrame, own: DataFrame*): DataFrame = {
    val sums = f.columns.toSeq.filter(_ != "node")
    val carried = own.flatMap(_.schema.fields.filter(_.name != "node")).map(c => c.name -> c.dataType).distinct
    def carry(o: Option[DataFrame]): Seq[Column] = carried.map { case (c, t) =>
      if (o.exists(_.columns.contains(c))) col(c) else lit(null).cast(t).as(c)
    }
    val messages = edges
      .join(f.withColumnRenamed("node", "__n").hint("shuffle_hash"), col("dst") === col("__n"))
      .select((col("src").as("node") +: sums.map(col)) ++ carry(None): _*)
    val rows = own.map(o => o.select((col("node") +: sums.map(c => lit(0.0).as(c))) ++ carry(Some(o)): _*))
    val aggs = sums.map(c => coalesce(sum(c), lit(0.0)).as(c)) ++ carried.map { case (c, _) => max(c).as(c) }
    rows.foldLeft(messages)(_ unionByName _).groupBy("node").agg(aggs.head, aggs.tail: _*)
  }

  /** A k×k driver matrix from per-class rows (c, M_c·) — class sums of an
    * n×k matrix, collected. A class id outside [0, k) fails here, before
    * it could land in the wrong cell.
    */
  def classMatrix(k: Int, rows: Seq[(Int, Array[Double])]): Dense = {
    val out = Dense.zeros(k, k)
    for ((c, row) <- rows) {
      require(c >= 0 && c < k, s"class id outside [0,$k): $c")
      Array.copy(row, 0, out.data, c * k, k)
    }
    out
  }

  /** The index of a row's largest column; ties break toward the smallest
    * index so results are deterministic. Null on an all-null row.
    */
  def argmax(row: Seq[Column]): Column = {
    val top = greatest(row: _*)
    row.indices.tail.foldLeft(when(row.head === top, 0)) { (acc, j) => acc.when(row(j) === top, j) }
  }

  /** argmax over classes: (node, cls) with the highest belief. */
  def argmaxLabels(f: DataFrame): DataFrame =
    f.select(col("node"), argmax(values(f.columns.count(_.matches("v\\d+")))).as("cls"))

  /** Spectral radius ρ(W) by distributed power iteration (symmetric W);
    * 0.0 for a graph without edges.
    *
    * The first product W·1 is the degree vector. Every later hop sends
    * v/‖W·1‖, one constant for the whole call, so each hop of a call (and
    * of a later call on the same graph) runs the same plan; the estimate
    * after t products is ‖W·1‖·‖v_t‖/‖v_{t−1}‖ = ‖Wᵗ·1‖/‖Wᵗ⁻¹·1‖, as with
    * normalizing at every step.
    */
  def spectralRadius(g: SparseGraph, iters: Int = 25): Double = {
    // One job: a plain RDD fold needs no exchange, unlike a global agg.
    def norm(v: DataFrame): Double =
      math.sqrt(v.select(col("v") * col("v")).rdd.map(_.getDouble(0)).fold(0.0)(_ + _))
    var v = g.degrees.withColumnRenamed("deg", "v")
    val first = norm(v)
    var (lambda, last) = (first, first)
    for (_ <- 2 to iters if first > 0) {
      v = materialize(multiply(g.edges, v.select(col("node"), (col("v") / lit(first)).as("v"))))
      val next = norm(v)
      lambda = first * next / last
      last = next
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

  /** Collect a wide n×k matrix into a dense driver matrix — tests and
    * small-n reference checks only.
    */
  def collectDense(f: DataFrame, n: Int, k: Int): Dense = {
    val out = Dense.zeros(n, k).data
    f.select(col("node") +: values(k): _*).collect().foreach { r =>
      for (j <- 0 until k) out(r.getLong(0).toInt * k + j) = r.getDouble(j + 1)
    }
    new Dense(n, k, out)
  }

  /** Build a SparseGraph from an undirected edge list (one direction),
    * deduplicating, dropping self-loops and adding reverse edges.
    *
    * The edges are hash-partitioned by ``dst`` and held persisted, so a hop
    * scans them with no exchange. (A localCheckpoint would drop that
    * partitioning.) The partition count is ``spark.sql.shuffle.partitions``
    * capped at the default parallelism: the join of every hop runs one task
    * per edge partition, and adaptive execution cannot coalesce a side it
    * does not shuffle. Deduplication clusters on (src, dst), which the dst
    * partitioning already satisfies. The input is checkpointed first, so no
    * later plan over the edges carries the input's own plan along; a node
    * id outside [0, n) fails that checkpoint. The checked ids are declared
    * non-null (the check raises before the fallback could apply), so a hop's
    * output keyed by them has the schema of a frame keyed by seed nodes.
    */
  def fromUndirected(spark: SparkSession, n: Long, undirected: DataFrame): SparseGraph = {
    def checkedNode(c: String): Column = {
      val id = col(c).cast("long")
      coalesce(when(id.between(0L, n - 1), id).otherwise(raise_error(
        concat(lit(s"node id outside [0,$n): "), coalesce(id.cast("string"), lit("null"))))), lit(-1L)).as(c)
    }
    val e = undirected.select(checkedNode("src"), checkedNode("dst"))
      .where(col("src") =!= col("dst"))
    val both = materialize(e.unionByName(e.select(col("dst").as("src"), col("src").as("dst"))))
    val parts = math.min(spark.conf.get("spark.sql.shuffle.partitions").toInt, spark.sparkContext.defaultParallelism)
    val edges = both.repartition(parts, col("dst")).distinct().persist()
    edges.count()
    SparseGraph(n, edges)
  }
}
