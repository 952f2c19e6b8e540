package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The driver's block manager is private to Spark; this reads which broadcast
  * values it holds, so a test can see that a broadcast was destroyed.
  */
object BlockManagerAccess {

  /** Each broadcast whose value (not its serialized pieces) the driver's block
    * manager holds, as its id and the value.
    */
  def broadcastValues(sc: SparkContext): Seq[(Long, Any)] = {
    val blocks = sc.env.blockManager
    blocks.getMatchingBlockIds(_.isBroadcast).collect { case id @ BroadcastBlockId(n, "") => (id, n) }.flatMap {
      case (id, n) => blocks.getLocalValues(id).map(r => n -> r.data.toList.head) // reading it all releases the lock
    }
  }
}
