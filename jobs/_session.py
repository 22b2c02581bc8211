"""SparkSession bootstrap for the spark-submit job entrypoints: the shared
:func:`repro.session.get_spark`, re-exported under the name the jobs import."""
from repro.session import get_spark

__all__ = ["get_spark"]
