package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** The primitive argsort behind the `G_T` collect and the flow permutation,
  * against Scala's stable `sortBy`.
  */
class InteractionsSpec extends AnyFunSuite {

  /** Keys with many ties, at sizes 0, 1 and up to 10^4. */
  private val keys: Gen[Array[Int]] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 8 -> Gen.choose(2, 10000))
    distinct <- Gen.choose(1, 30)
    ks <- Gen.listOfN(n, Gen.choose(0, distinct - 1))
  } yield ks.toArray

  private def check(prop: Prop): Unit = {
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, result.status)
  }

  test("argsort gives the ids of a stable sortBy") {
    check(Prop.forAll(keys) { k =>
      Interactions.argsort(Array.range(0, k.length + 1))((a, b) => Integer.compare(k(a), k(b))).toSeq == k.indices.sortBy(k(_))
    })
  }

  test("argsort over sorted runs gives the ids of a stable sortBy") {
    check(Prop.forAll(keys, Gen.choose(1, 12)) { (k, runs) =>
      val rnd = new scala.util.Random(k.length * 31 + runs)
      val bounds = (0 +: Vector.fill(runs - 1)(rnd.nextInt(k.length + 1)) :+ k.length).sorted.toArray
      for (r <- 0 until runs) java.util.Arrays.sort(k, bounds(r), bounds(r + 1))
      Interactions.argsort(bounds)((a, b) => Integer.compare(k(a), k(b))).toSeq == k.indices.sortBy(k(_))
    })
  }
}
