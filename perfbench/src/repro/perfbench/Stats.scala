package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** Summary statistics the benchmark reports. Pure, so they are unit-tested. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Percentiles tried for the tail, highest first. */
  val TailLadder: Seq[Double] = Seq(99.9, 99.0, 95.0, 90.0, 75.0)

  /** Samples a tail percentile must leave beyond it to be reported. */
  val TailMinBeyond = 10

  /** A reported tail: `value` is the `pct`-th percentile of `n` samples. */
  final case class Tail(pct: Double, value: Double, n: Int)

  /** The highest percentile of [[TailLadder]] (nearest rank) that has at least
    * [[TailMinBeyond]] samples beyond it; the median when none has.
    */
  def tail(xs: Seq[Double]): Tail = {
    val s = xs.sorted
    val n = s.length
    TailLadder.iterator
      .map(p => (p, math.ceil(p * n / 100).toInt))
      .collectFirst { case (p, rank) if rank >= 1 && n - rank >= TailMinBeyond => Tail(p, s(rank - 1), n) }
      .getOrElse(Tail(50.0, median(s), n))
  }

  /** Self time of a span: its duration minus its children's. Timing noise can
    * make that negative; it is then clamped to 0 and flagged.
    */
  def selfTime(total: Double, children: Seq[Double]): (Double, Boolean) = {
    val d = total - children.sum
    if (d < 0) (0.0, true) else (d, false)
  }

  /** Element-wise equality up to a relative tolerance of 1e-9. */
  def sameAnswer(a: Seq[Double], b: Seq[Double]): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) =>
      x == y || math.abs(x - y) <= 1e-9 * math.max(1.0, math.abs(y))
    }
}

/** The outcome of one attempted operation: its wall time, and either its
  * answer or the reason it failed.
  */
final case class Outcome(name: String, wallS: Double, answer: Option[Seq[Double]], error: Option[String]) {
  def failed(why: String): Outcome = if (error.isDefined) this else copy(error = Some(why))
}

/** Counts attempted and failed operations. An operation fails when it throws
  * or when a check rejects its answer; neither stops the run.
  */
final class Ledger {
  private var attempts = 0
  private val failures = ArrayBuffer.empty[String]

  def attempted: Int = attempts
  def failed: Int = failures.length
  def failedFrac: Double = if (attempts == 0) 0.0 else failed.toDouble / attempts
  def reasons: Seq[String] = failures.toSeq

  /** Run `body`, catching any non-fatal exception as a failed answer. */
  def attempt(name: String)(body: => Seq[Double]): Outcome = {
    val t0 = System.nanoTime()
    val answer =
      try Right(body)
      catch { case NonFatal(e) => Left(s"$name threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
    val wall = (System.nanoTime() - t0) / 1e9
    answer.fold(err => Outcome(name, wall, None, Some(err)), a => Outcome(name, wall, Some(a), None))
  }

  /** Count an outcome once its checks have run. */
  def settle(o: Outcome): Unit = {
    attempts += 1
    o.error.foreach(failures += _)
  }
}
