package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The flow permutation as a relational plan, the reference
  * [[Randomizer.permuteFlows]] and the study are tested against: both sides
  * are ranked by an independent `rand` ordering and joined on rank.
  */
object ReferenceRandomizer {

  def permuteFlows(edges: DataFrame, seed: Long): DataFrame = {
    val left = edges
      .withColumn("_rid", row_number().over(Window.orderBy(rand(seed), col("src"), col("dst"), col("t"))))
    val flows = edges.select(col("f").as("_pf"))
      .withColumn("_rid", row_number().over(Window.orderBy(rand(seed + 1), col("_pf"))))
    left.join(flows, "_rid")
      .select(col("src"), col("dst"), col("t"), col("_pf").as("f"))
  }
}
