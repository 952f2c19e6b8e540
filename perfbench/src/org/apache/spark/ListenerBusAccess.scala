package org.apache.spark

/** The listener bus delivers events asynchronously and its drain is private to
  * Spark; this exposes it so a span closes only after its events have arrived.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
