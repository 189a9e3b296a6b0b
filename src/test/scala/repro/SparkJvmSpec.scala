package repro

import org.apache.spark.{HashPartitioner, SparkEnv}
import org.apache.spark.serializer.KryoSerializer

/** The test JVM starts with the module flags Spark's own launcher passes
  * (build.sbt), so the parts of Spark that need them work here.
  */
class SparkJvmSpec extends SparkSpec {

  test("an RDD[(Long, Long)] shuffles through a HashPartitioner with Kryo") {
    val kryo = SparkEnv.get.serializerManager.getSerializer(implicitly[reflect.ClassTag[Long]], implicitly[reflect.ClassTag[Long]])
    assert(kryo.isInstanceOf[KryoSerializer], s"Spark picked ${kryo.getClass.getName}")
    val pairs = spark.sparkContext.parallelize((0L until 1000L).map(i => (i % 17, i)), 4)
    assert(pairs.partitionBy(new HashPartitioner(3)).count() == 1000)
  }
}
