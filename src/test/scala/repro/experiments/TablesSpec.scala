package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

class TablesSpec extends AnyFunSuite {

  test("the registry holds Tables 2-10 once each, selectable by name") {
    assert(Tables.all.map(_.name) === (2 to 10).map(i => s"table$i"))
    (2 to 10).foreach { i =>
      val t = Tables.byName(s"table$i")
      assert(t.title.startsWith(s"Table $i (paper "), t.title)
    }
  }

  test("a table that runs PARABACUS fails fast without a SparkSession") {
    val e = intercept[RuntimeException](Tables.LoadBalance.run())
    assert(e.getMessage.contains("table10 needs a SparkSession"))
  }
}
