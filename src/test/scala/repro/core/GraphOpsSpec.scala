package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.reflect.ClassTag
import org.apache.spark.sql.Encoder
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.eval.Accuracy
import repro.linalg.Dense
import repro.testutil.{DenseRef, LocalGraphs, SparkCounters, SparkDraw}

class GraphOpsSpec extends SparkSpec {

  private lazy val n = 40
  private lazy val edgeList = DenseRef.randomEdges(n, 120, seed = 11)
  private lazy val w = DenseRef.adjacency(n, edgeList)
  private lazy val g = LocalGraphs.graph(spark, n, edgeList)
  private lazy val labelMap = (0 until n).map(i => i -> (i % 3)).toMap
  private lazy val labelsDf = LocalGraphs.labels(spark, labelMap)

  test("fromUndirected symmetrizes, dedups and drops self-loops") {
    import spark.implicits._
    val messy = Seq((1L, 2L), (2L, 1L), (1L, 2L), (3L, 3L), (2L, 4L)).toDF("src", "dst")
    val sg = GraphOps.fromUndirected(spark, 5, messy)
    val got = sg.edges.as[(Long, Long)].collect().toSet
    assert(got == Set((1L, 2L), (2L, 1L), (2L, 4L), (4L, 2L)))
    assert(sg.m == 2)
  }

  test("m is half the degree sum: edges.count() / 2, with no job once the degrees are known") {
    import spark.implicits._
    val empty = GraphOps.fromUndirected(spark, 3, Seq.empty[(Long, Long)].toDF("src", "dst"))
    val star = LocalGraphs.graph(spark, 8, Seq((0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)))
    for (graph <- Seq(LocalGraphs.graph(spark, n, edgeList), star, empty)) {
      graph.degrees
      assert(SparkCounters.of(spark)(graph.m).jobs == 0)
      assert(graph.m == graph.edges.count() / 2)
    }
  }

  test("edges are exactly symmetric") {
    import spark.implicits._
    val e = g.edges.as[(Long, Long)].collect().toSet
    assert(e.map(_.swap) == e)
    assert(e.forall { case (a, b) => a != b })
  }

  test("degrees match the dense adjacency row sums") {
    val degs = g.degrees
    val expected = w.rowSums
    (0 until n).foreach { i =>
      assert(degs(i) == expected(i), s"node $i")
    }
  }

  test("degrees match the DuckDB oracle") {
    import spark.implicits._
    val degs = g.degrees.zipWithIndex.collect { case (d, i) if d > 0 => (i.toLong, d) }.toSeq.toDF("node", "deg")
    Oracle.assertEquivalent(
      degs,
      "SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS deg FROM edges GROUP BY src",
      "edges" -> g.edges)
  }

  test("multiply W·F matches the dense reference") {
    val f = DenseRef.random(n, 3, seed = 5)
    val got = GraphOps.multiply(g, f)
    assert(got.approxEquals(w * f, 1e-9))
  }

  test("multiply W·X matches the DuckDB oracle") {
    import spark.implicits._
    val wx = GraphOps.multiply(g, GraphOps.collectLabels(labelsDf, n, 3).oneHot)
    val perClass = (0 until 3).map(j =>
      s"CAST(SUM(CASE WHEN x.cls = '$j' THEN 1 ELSE 0 END) AS DOUBLE) AS v$j").mkString(", ")
    Oracle.assertEquivalent(
      (0 until n).map(i => (i.toLong, wx(i, 0), wx(i, 1), wx(i, 2))).toDF("node", "v0", "v1", "v2"),
      s"""SELECT e.src AS node, $perClass
         FROM edges e JOIN labels x ON e.dst = x.node
         GROUP BY e.src""",
      "edges" -> g.edges, "labels" -> labelsDf)
  }

  test("one multiply runs one job in one stage and writes no shuffle bytes") {
    val f = DenseRef.random(n, 3, seed = 16)
    val built = LocalGraphs.graph(spark, n, edgeList)
    built.degrees // builds the adjacency
    val hop = SparkCounters.of(spark)(GraphOps.multiply(built, f))
    val blocks = built.adjacency.getNumPartitions
    assert(hop == SparkCounters.Counts(jobs = 1, stages = 1, shuffleWriteBytes = 0, tasks = blocks), hop.toString)
  }

  /** W of ``undirected`` on n nodes as hand-built CSR blocks, one per row
    * range of ``rows``, in a partition each of ``slices``.
    */
  private def blocks(n: Int, undirected: Seq[(Int, Int)], rows: Seq[Range], slices: Int): SparseGraph = {
    val w = DenseRef.adjacency(n, undirected)
    val csr = rows.map { range =>
      val neighbours = range.map(r => (0 until n).filter(w(r, _) != 0.0))
      CsrBlock(range.toArray, neighbours.scanLeft(0)(_ + _.length).toArray, neighbours.flatten.toArray)
    }
    new SparseGraph(n, spark.sparkContext.parallelize(csr, slices))
  }

  test("multiply and degrees equal the dense reference exactly: an isolated node, an empty block, no edges") {
    import spark.implicits._
    // Node n − 1 loses its edges; the hand-built graph's blocks are rows
    // 0..19, none and 20..n−1 in 4 partitions, so one partition has no block.
    val lonely = edgeList.filter { case (a, b) => a != n - 1 && b != n - 1 }
    val empty = GraphOps.fromUndirected(spark, 3, Seq.empty[(Long, Long)].toDF("src", "dst"))
    val cases = Seq(
      (LocalGraphs.graph(spark, n, lonely), DenseRef.adjacency(n, lonely)),
      (blocks(n, edgeList, Seq(0 until 20, 0 until 0, 20 until n), slices = 4), w),
      (empty, Dense.zeros(3, 3)))
    for (((graph, dense), i) <- cases.zipWithIndex) {
      val f = DenseRef.random(dense.rows, 3, seed = 30 + i)
      assert(GraphOps.multiply(graph, f) == dense * f, s"case $i")
      assert(graph.degrees.toSeq == dense.rowSums.toSeq, s"case $i")
    }
    assert(cases.head._1.degrees(n - 1) == 0.0)
    assert(GraphOps.multiply(empty, DenseRef.random(3, 2, seed = 1)) == Dense.zeros(3, 2))
    assert(GraphOps.spectralRadius(empty) == 0.0)
  }

  /** Each of ``labels``' (node, cls) pairs, in order. */
  private def pairs(labels: Labels): Seq[(Long, Int)] = labels.nodes.toSeq.map(_.toLong).zip(labels.classes)

  test("collectLabels returns every table's labels in partition order, empty partitions and local tables between") {
    import spark.implicits._
    val truthRows = (0 until n).map(i => (i.toLong, i % 3))
    val seedRows = truthRows.filter(_._1 % 4 == 0)
    val few = truthRows.take(2)
    val tables = Seq(
      spark.sparkContext.parallelize(truthRows, 3).toDF("node", "cls"),
      seedRows.toDF("node", "cls"),
      spark.sparkContext.parallelize(few, 4).toDF("node", "cls"),
      spark.sparkContext.parallelize(Seq.empty[(Long, Int)], 2).toDF("node", "cls"))
    var read = Seq.empty[Labels]
    val counts = SparkCounters.of(spark) { read = GraphOps.collectLabels(tables, n, 3) }
    assert(counts.jobs == 1, counts.toString)
    val expected = Seq(truthRows, seedRows, few, Nil)
    assert(read.map(pairs) == expected)
    assert(read.forall(l => l.n == n && l.k == 3))
    for ((got, want) <- read.zip(expected))
      assert(got.oneHot == DenseRef.oneHot(n, 3, want.map { case (v, c) => v.toInt -> c }.toMap))
  }

  test("spectralRadius(g, 5) on a fresh graph starts 5 jobs") {
    val fresh = LocalGraphs.graph(spark, n, edgeList)
    val jobs = SparkCounters.of(spark)(GraphOps.spectralRadius(fresh, 5)).jobs
    assert(jobs == 5, s"$jobs jobs")
  }

  test("a perfect matching on 20 000 nodes has ρ(W) = 1 after 200 products") {
    // ‖W·1‖ = √20000 ≈ 141 while ρ = 1: an iterate scaled by one constant
    // shrinks by 1/141 per product and underflows long before 200.
    val matching = LocalGraphs.graph(spark, 20000, (0 until 10000).map(i => (2 * i, 2 * i + 1)))
    val rho = GraphOps.spectralRadius(matching, 200)
    assert(math.abs(rho - 1.0) <= 1e-9, s"ρ = $rho")
  }

  test("uniform draws what Spark's xxhash64 draws") {
    import spark.implicits._
    val keys = for (seed <- Seq(0L, 10L, -3L); i <- Seq(1, 2); node <- Seq(0L, 7L, 123456789L, -1L, Long.MaxValue)) yield (seed, i, node)
    for ((seed, i, node) <- keys) {
      val row = Seq(node).toDF("node").select(SparkDraw.uniform(seed, $"node"), SparkDraw.uniform(seed, lit(i), $"node")).first()
      assert(GraphOps.uniform(seed, node) == row.getDouble(0), s"seed $seed, node $node")
      assert(GraphOps.uniform(seed, i, node) == row.getDouble(1), s"seed $seed, i $i, node $node")
    }
  }

  test("a graph whose n·k entries do not fit one JVM array fails clearly") {
    val huge = SparseGraph(1L << 31, g.edges)
    val h = CompatibilityMatrix.planted(3, 8.0)
    for (body <- Seq(() => GraphOps.spectralRadius(huge), () => LinBP.run(huge, labelsDf, h, rhoW = Some(1.0)))) {
      val e = intercept[IllegalArgumentException](body())
      assert(e.getMessage.contains("does not fit one JVM array"), e.getMessage)
    }
  }

  test("oneHot and centeredOneHot match the dense reference") {
    val partial = labelMap.filter(_._1 < 10)
    val ldf = LocalGraphs.labels(spark, partial)
    val collected = GraphOps.collectLabels(ldf, n, 3)
    assert(collected.oneHot.approxEquals(DenseRef.oneHot(n, 3, partial), 1e-12))
    assert(collected.centeredOneHot.approxEquals(DenseRef.centeredOneHot(n, 3, partial), 1e-12))
  }

  test("M⁽¹⁾ = XᵀWX matches the DuckDB oracle") {
    import spark.implicits._
    val m1 = Sketch.compute(g, labelsDf, 3, 1).mFull(0)
    val asDf = (for { c <- 0 until 3; d <- 0 until 3 } yield (c, d, m1(c, d))).toDF("c", "d", "v")
    Oracle.assertEquivalent(
      asDf.where(col("v") =!= 0.0),
      """SELECT xs.cls AS c, xd.cls AS d, CAST(COUNT(*) AS DOUBLE) AS v
         FROM edges e
         JOIN labels xs ON e.src = xs.node
         JOIN labels xd ON e.dst = xd.node
         GROUP BY xs.cls, xd.cls""",
      "edges" -> g.edges, "labels" -> labelsDf)
  }

  test("argmaxLabels picks the max belief with ties to the smaller class") {
    val f = Dense.fromRows(Seq(
      Seq(0.2, 0.9, 0.1),    // clear winner: 1
      Seq(0.5, 0.5, 0.0),    // tie: 0
      Seq(-0.5, -0.3, -0.1), // negative beliefs: 2
      Seq(0.2, 0.9, 0.9),    // tie between 1 and 2: 1
      Seq(-1.0, -1.0, -1.0), // all tied: 0
      Seq(0.3, 0.1, 0.3),    // tie between 0 and 2: 0
      Seq(0.0, -0.0, 0.0)))  // signed zeros tie: 0
    val got = GraphOps.argmaxLabels(f)
    assert(got.n == f.rows && got.k == 3 && got.nodes.toSeq == (0 until f.rows))
    assert(got.classes.toSeq == Seq(1, 0, 2, 1, 0, 0, 0))
  }

  test("distributed spectral radius matches the dense reference") {
    val expected = w.spectralRadius()
    val got = GraphOps.spectralRadius(g, iters = 40)
    assert(math.abs(got - expected) / expected < 0.01, s"got $got expected $expected")
  }

  test("spectralRadius equals power iteration normalizing at every step, t = 1..6") {
    // Sequential reference: v ← W·(v/‖v‖) from v = W·1, returning the last ‖v‖.
    def normalizing(w: Dense, t: Int): Double = {
      def norm(v: Dense) = math.sqrt(v.data.map(x => x * x).sum)
      var v = w * Dense.fill(w.rows, 1)(1.0)
      var lambda = norm(v)
      for (_ <- 2 to t) { v = w * v.scale(1 / lambda); lambda = norm(v) }
      lambda
    }
    val star = Seq((0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6))
    for ((graph, dense) <- Seq(g -> w, LocalGraphs.graph(spark, 8, star) -> DenseRef.adjacency(8, star)); t <- 1 to 6) {
      val (got, expected) = (GraphOps.spectralRadius(graph, t), normalizing(dense, t))
      assert(math.abs(got - expected) <= 1e-12 * expected, s"t=$t: got $got expected $expected")
    }
  }

  test("spectral radius of a graph without edges is 0") {
    import spark.implicits._
    val empty = GraphOps.fromUndirected(spark, 3, Seq.empty[(Long, Long)].toDF("src", "dst"))
    assert(GraphOps.spectralRadius(empty) == 0.0)
  }

  test("a class id outside [0,k) fails the query") {
    val bad = LocalGraphs.labels(spark, Map(0 -> 0, 1 -> 3))
    val e = intercept[Exception](GraphOps.collectLabels(bad, n, 3))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains("class id outside [0,3): 3")), e.toString)
  }

  test("fromUndirected rejects a node id outside [0,n)") {
    import spark.implicits._
    val edges = Seq[(Option[Long], Option[Long])](Some(1L) -> Some(5L), Some(-1L) -> Some(2L), Some(3L) -> None)
    for ((edge, id) <- edges.zip(Seq("5", "-1", "null"))) {
      val e = intercept[Exception](GraphOps.fromUndirected(spark, 5, Seq(edge, Some(0L) -> Some(1L)).toDF("src", "dst")))
      assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .exists(t => String.valueOf(t.getMessage).endsWith(s"node id outside [0,5): $id")), e.toString)
    }
  }

  /** Whether ``e`` or one of its causes has a message containing ``text``. */
  private def mentions(e: Throwable, text: String): Boolean =
    Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(t => String.valueOf(t.getMessage).contains(text))

  test("SparseGraph(n, edges) rejects a null, negative or too-large node id") {
    import spark.implicits._
    val edges = Seq[(Option[Long], Option[Long])](None -> Some(1L), Some(1L) -> None, Some(-1L) -> Some(2L), Some(3L) -> Some(5L))
    for ((edge, id) <- edges.zip(Seq("null", "null", "-1", "5"))) {
      val table = Seq(edge, edge.swap, Some(0L) -> Some(1L), Some(1L) -> Some(0L)).toDF("src", "dst")
      val e = intercept[Exception](SparseGraph(5, table).degrees)
      assert(mentions(e, s"node id outside [0,5): $id"), e.toString)
    }
  }

  test("a Long, Int or Short node column gives the same labels") {
    import spark.implicits._
    val rows = Seq((3, 1), (0, 2), (7, 0))
    val tables = Seq(rows.map { case (v, c) => (v.toLong, c) }.toDF("node", "cls"), rows.toDF("node", "cls"),
      rows.map { case (v, c) => (v.toShort, c) }.toDF("node", "cls"))
    for (labels <- tables.map(GraphOps.collectLabels(_, 8, 3))) {
      assert(labels.nodes.toSeq == rows.map(_._1) && labels.classes.toSeq == rows.map(_._2))
    }
  }

  test("a Double or String node column, or a missing cls column, fails naming the column") {
    import spark.implicits._
    val cases = Seq(
      Seq((1.0, 0)).toDF("node", "cls") -> "`node` has type double",
      Seq(("1", 0)).toDF("node", "cls") -> "`node` has type string",
      Seq((1L, 0)).toDF("node", "class") -> "`cls`")
    for ((table, text) <- cases) {
      val e = intercept[IllegalArgumentException](GraphOps.collectLabels(table, n, 3))
      assert(e.getMessage.contains(text), e.getMessage)
    }
  }

  test("a Long class id beyond the Int range fails instead of wrapping") {
    import spark.implicits._
    val e = intercept[Exception](GraphOps.collectLabels(Seq((0L, 1L << 31)).toDF("node", "cls"), n, 3))
    assert(mentions(e, "class id outside [0,3): 2147483648"), e.toString)
  }

  test("collectLabels reads cached tables with one job and no SQL execution, local ones with no job") {
    import spark.implicits._
    val truthRows = (0 until n).map(i => (i.toLong, i % 3))
    val seedRows = truthRows.filter(_._1 % 4 == 0)
    val local = Seq(truthRows, seedRows).map(_.toDF("node", "cls"))
    val cached = Seq(truthRows, seedRows).map(spark.sparkContext.parallelize(_, 2).toDF("node", "cls").cache())
    try {
      cached.foreach(_.count())
      for ((tables, jobs) <- Seq(cached -> 1, local -> 0)) {
        var read = Seq.empty[Labels]
        val counts = SparkCounters.of(spark) { read = GraphOps.collectLabels(tables, n, 3) }
        assert(counts.jobs == jobs && counts.sqlExecutions == 0, counts.toString)
        assert(read.map(pairs(_).sortBy(_._1)) == Seq(truthRows, seedRows))
      }
    } finally cached.foreach(_.unpersist(blocking = true))
  }

  test("fromUndirected starts at most 2 jobs and persists only the CSR blocks") {
    import spark.implicits._
    val undirected = DenseRef.randomEdges(n, 120, seed = 12).map { case (a, b) => (a.toLong, b.toLong) }.toDF("src", "dst")
    val before = spark.sparkContext.getPersistentRDDs.keySet
    var built: SparseGraph = null
    val jobs = SparkCounters.of(spark) { built = GraphOps.fromUndirected(spark, n, undirected) }.jobs
    val added = spark.sparkContext.getPersistentRDDs.keySet -- before
    assert(jobs <= 2, s"$jobs jobs")
    assert(added == Set(built.adjacency.id), s"persisted RDDs added: $added")
  }

  test("the CSR blocks' lineage is cut: after fromUndirected, and after the first job on SparseGraph(n, g.edges)") {
    val built = LocalGraphs.graph(spark, n, edgeList)
    val rebuilt = SparseGraph(n, built.edges)
    assert(!rebuilt.adjacency.isCheckpointed)
    rebuilt.degrees
    for (graph <- Seq(built, rebuilt)) {
      assert(graph.adjacency.isCheckpointed)
      assert(graph.adjacency.dependencies.map(_.rdd.getClass.getSimpleName) == Seq("LocalCheckpointRDD"))
    }
  }

  test("a hop on a graph whose blocks were released fails, naming the missing block") {
    val built = LocalGraphs.graph(spark, n, edgeList)
    built.adjacency.unpersist(blocking = true)
    val e = intercept[Exception](GraphOps.multiply(built, DenseRef.random(n, 3, seed = 17)))
    assert(mentions(e, s"Checkpoint block rdd_${built.adjacency.id}_"), e.toString)
  }

  test("Packed survives Java serialization bit for bit: NaN, −0.0, infinities, empty arrays and several chunks") {
    def roundTrip(p: Packed): Packed = {
      val bytes = new ByteArrayOutputStream
      val out = new ObjectOutputStream(bytes)
      out.writeObject(p)
      out.close()
      new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[Packed]
    }
    val doubles = Array(1.5, -0.0, Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000123L),
      Double.PositiveInfinity, Double.MinPositiveValue, -3e300)
    for ((ints, ds) <- Seq((Array(0, -1, Int.MaxValue, Int.MinValue), doubles), (Array.emptyIntArray, doubles),
        (Array(7), Array.emptyDoubleArray), (Array.emptyIntArray, Array.emptyDoubleArray),
        (Array.tabulate(2 * Packed.Chunk + 3)(i => i * 7919), Array.tabulate(3 * Packed.Chunk + 1)(i => math.sin(i.toDouble))))) {
      val back = roundTrip(new Packed(ints, ds))
      assert(back.ints.sameElements(ints))
      assert(back.doubles.map(java.lang.Double.doubleToRawLongBits).sameElements(ds.map(java.lang.Double.doubleToRawLongBits)))
    }
  }

  test("the label read's job path fails on a null node, a null class, a double column and a class beyond the Int range") {
    import spark.implicits._
    def cached[T <: Product: Encoder: ClassTag](rows: Seq[T]) = {
      val t = spark.createDataset(spark.sparkContext.parallelize(rows, 2)).toDF("node", "cls").cache()
      t.count()
      assert(!t.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec])
      t
    }
    val nullNode = cached(Seq[(Option[Long], Int)]((Some(0L), 0), (None, 1)))
    val nullClass = cached(Seq[(Long, Option[Int])]((0L, Some(0)), (1L, None)))
    val double = cached(Seq((0.0, 0), (1.0, 1)))
    val wide = cached(Seq((0L, 1L << 31)))
    val negativeNode = cached(Seq((0L, 0), (-1L, 1)))
    val negativeClass = cached(Seq((0L, 0), (1L, -2)))
    try {
      for ((table, text) <- Seq(nullNode -> "node id outside [0,40): null", nullClass -> "class id outside [0,3): null",
          double -> "id column `node` has type double", wide -> "class id outside [0,3): 2147483648")) {
        val e = intercept[Exception](GraphOps.collectLabels(table, n, 3))
        assert(mentions(e, text), e.toString)
      }
      for ((table, text) <- Seq(nullNode -> "node id outside [0,2147483647): null",
          nullClass -> "class id outside [0,2147483647): null", double -> "id column `node` has type double",
          negativeNode -> "node id outside [0,2147483647): -1", negativeClass -> "class id outside [0,2147483647): -2")) {
        val e = intercept[Exception](Accuracy.sampleSeeds(table, 0.5))
        assert(mentions(e, text), e.toString)
      }
    } finally Seq(nullNode, nullClass, double, wide, negativeNode, negativeClass).foreach(_.unpersist(blocking = true))
  }

  test("explicitPower matches dense W^ℓ for ℓ = 1..3") {
    for (l <- 1 to 3) {
      val p = GraphOps.explicitPower(g.edges, l).collect()
        .map(r => (r.getLong(0).toInt, r.getLong(1).toInt) -> r.getDouble(2)).toMap
      val expected = w.pow(l)
      for (i <- 0 until n; j <- 0 until n) {
        assert(p.getOrElse((i, j), 0.0) == expected(i, j), s"l=$l ($i,$j)")
      }
    }
  }
}
