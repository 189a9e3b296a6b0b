package repro.tables

/** Shared plumbing for the table harnesses (one module per evaluation
  * table, see DESIGN.md §4). Each harness exposes `run(spark, seed)`,
  * with every other parameter of its experiment a constant of the
  * harness, returning typed rows; `jobs/Tables` prints them and the
  * `bench/` suites assert on them, so both run the same experiment.
  */
object TableUtil {

  /** Wall-clock a block, returning (result, millis). */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Render an aligned text table. */
  def format(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def f3(x: Double): String = f"$x%.3f"
  def f2(x: Double): String = f"$x%.2f"
  def ms(t: Long): String = s"${t}ms"
}
