package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.linalg.Dense
import repro.testutil.{DenseRef, LocalGraphs}

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

  test("edges are exactly symmetric") {
    import spark.implicits._
    val e = g.edges.as[(Long, Long)].collect().toSet
    assert(e.map(_.swap) == e)
    assert(e.forall { case (a, b) => a != b })
  }

  test("degrees match the dense adjacency row sums") {
    val degs = g.degrees.collect().map(r => r.getLong(0).toInt -> r.getDouble(1)).toMap
    val expected = w.rowSums
    (0 until n).foreach { i =>
      assert(degs.getOrElse(i, 0.0) == expected(i), s"node $i")
    }
  }

  test("degrees match the DuckDB oracle") {
    Oracle.assertEquivalent(
      g.degrees,
      "SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS deg FROM edges GROUP BY src",
      "edges" -> g.edges)
  }

  /** Select one generated row of columns as v0..v{k−1} beside node. */
  private def rowOf(df: org.apache.spark.sql.DataFrame, row: Seq[org.apache.spark.sql.Column]) =
    df.select(col("node") +: GraphOps.named(row): _*)

  test("multiply W·F matches the dense reference") {
    val f = DenseRef.random(n, 3, seed = 5)
    val got = LocalGraphs.toDense(
      GraphOps.multiply(g.edges, LocalGraphs.wide(spark, f)), n, 3)
    assert(got.approxEquals(w * f, 1e-9))
  }

  test("multiply W·X matches the DuckDB oracle") {
    val x = GraphOps.oneHot(labelsDf, 3)
    val perClass = (0 until 3).map(j =>
      s"CAST(SUM(CASE WHEN x.cls = '$j' THEN 1 ELSE 0 END) AS DOUBLE) AS v$j").mkString(", ")
    Oracle.assertEquivalent(
      GraphOps.multiply(g.edges, x),
      s"""SELECT e.src AS node, $perClass
         FROM edges e JOIN labels x ON e.dst = x.node
         GROUP BY e.src""",
      "edges" -> g.edges, "labels" -> labelsDf)
  }

  test("multiply carries each node's own rows along") {
    val f = DenseRef.random(n, 3, seed = 14)
    val own = DenseRef.random(n, 2, seed = 15)
    val hop = GraphOps.multiply(g.edges, LocalGraphs.wide(spark, f),
      LocalGraphs.wide(spark, own, "o"), g.degrees)
    assert(LocalGraphs.toDense(hop, n, 3).approxEquals(w * f, 1e-9))
    assert(LocalGraphs.toDense(rowOf(hop, GraphOps.values(2, "o")), n, 2).approxEquals(own, 0))
    val degs = hop.select("node", "deg").collect().map(r => r.getLong(0).toInt -> r.getDouble(1)).toMap
    assert((0 until n).forall(i => degs(i) == w.rowSums(i)))
  }

  test("one hop scans the fromUndirected edge table with no exchange") {
    import org.apache.spark.sql.execution.{SparkPlan, joins}
    import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
    import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
    import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
    val hop = GraphOps.multiply(g.edges, LocalGraphs.wide(spark, DenseRef.random(n, 3, seed = 16)))
    hop.collect()
    def nodes(p: SparkPlan): Seq[SparkPlan] = p +: (p match {
      case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
      case q: QueryStageExec => nodes(q.plan)
      case o => o.children.flatMap(nodes)
    })
    // The edge scan is reached from an exchange only through the join.
    def scanBelow(p: SparkPlan): Boolean = p match {
      case _: InMemoryTableScanExec => true
      case _: joins.BaseJoinExec => false
      case a: AdaptiveSparkPlanExec => scanBelow(a.executedPlan)
      case q: QueryStageExec => scanBelow(q.plan)
      case o => o.children.exists(scanBelow)
    }
    val plan = nodes(hop.queryExecution.executedPlan)
    val exchanges = plan.collect { case e: ShuffleExchangeExec => e }
    assert(plan.exists(_.isInstanceOf[InMemoryTableScanExec]), "the hop must read the persisted edges")
    assert(plan.exists(_.isInstanceOf[joins.BaseJoinExec]))
    assert(exchanges.nonEmpty && exchanges.forall(e => !scanBelow(e.child)),
      s"an exchange re-shuffles the edge table:\n${hop.queryExecution.executedPlan}")
  }

  test("applyH F·H matches the dense reference") {
    val f = DenseRef.random(n, 3, seed = 6)
    val h = DenseRef.random(3, 3, seed = 7)
    val got = LocalGraphs.toDense(
      rowOf(LocalGraphs.wide(spark, f), GraphOps.applyH(GraphOps.values(3), h)), n, 3)
    assert(got.approxEquals(f * h, 1e-9))
  }

  test("applyH supports non-square H (k_in != k_out)") {
    val f = DenseRef.random(n, 2, seed = 8)
    val h = DenseRef.random(2, 4, seed = 9)
    val got = LocalGraphs.toDense(
      rowOf(LocalGraphs.wide(spark, f), GraphOps.applyH(GraphOps.values(2), h)), n, 4)
    assert(got.approxEquals(f * h, 1e-9))
  }

  test("plus, minus and scale match the dense reference") {
    val a = DenseRef.random(n, 3, seed = 10)
    val b = DenseRef.random(n, 3, seed = 11)
    val ab = LocalGraphs.wide(spark, a).join(LocalGraphs.wide(spark, b, "b"), "node")
    val (va, vb) = (GraphOps.values(3), GraphOps.values(3, "b"))
    assert(LocalGraphs.toDense(rowOf(ab, GraphOps.plus(va, vb)), n, 3).approxEquals(a + b, 1e-9))
    assert(LocalGraphs.toDense(rowOf(ab, GraphOps.minus(va, vb)), n, 3).approxEquals(a - b, 1e-9))
    assert(LocalGraphs.toDense(rowOf(ab, GraphOps.scale(va, lit(-2.5))), n, 3).approxEquals(a.scale(-2.5), 1e-9))
  }

  test("diagScale computes (D − c·I)·F") {
    val f = DenseRef.random(n, 3, seed = 12)
    val df = LocalGraphs.wide(spark, f).join(g.degrees, "node")
    for (c <- Seq(0.0, 1.0)) {
      val got = LocalGraphs.toDense(rowOf(df, GraphOps.diagScale(GraphOps.values(3), col("deg"), lit(c))), n, 3)
      val expected = (DenseRef.degreeMatrix(w) - Dense.eye(n).scale(c)) * f
      assert(got.approxEquals(expected, 1e-9), s"c=$c")
    }
  }

  test("oneHot and centeredOneHot match the dense reference") {
    val partial = labelMap.filter(_._1 < 10)
    val ldf = LocalGraphs.labels(spark, partial)
    assert(LocalGraphs.toDense(GraphOps.oneHot(ldf, 3), n, 3)
      .approxEquals(DenseRef.oneHot(n, 3, partial), 1e-12))
    assert(LocalGraphs.toDense(GraphOps.centeredOneHot(ldf, 3), n, 3)
      .approxEquals(DenseRef.centeredOneHot(n, 3, partial), 1e-12))
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
    import spark.implicits._
    val f = Seq(
      (0L, 0.2, 0.9, 0.1),   // clear winner: 1
      (1L, 0.5, 0.5, 0.0),   // tie: 0
      (2L, -0.5, -0.3, -0.1) // negative beliefs: 2
    ).toDF("node", "v0", "v1", "v2")
    val got = GraphOps.argmaxLabels(f).as[(Long, Int)].collect().toMap
    assert(got == Map(0L -> 1, 1L -> 0, 2L -> 2))
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
    val e = intercept[Exception](GraphOps.oneHot(bad, 3).collect())
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains("class id outside [0,3): 3")), e.toString)
  }

  test("fromUndirected rejects a node id outside [0,n)") {
    import spark.implicits._
    for ((edge, id) <- Seq((1L, 5L) -> "5", (-1L, 2L) -> "-1")) {
      val e = intercept[Exception](GraphOps.fromUndirected(spark, 5, Seq(edge, (0L, 1L)).toDF("src", "dst")))
      assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .exists(t => String.valueOf(t.getMessage).contains(s"node id outside [0,5): $id")), e.toString)
    }
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

  test("wide/collectDense round-trips") {
    val f = DenseRef.random(7, 4, seed = 21)
    assert(LocalGraphs.toDense(LocalGraphs.wide(spark, f), 7, 4).approxEquals(f, 0))
  }
}
