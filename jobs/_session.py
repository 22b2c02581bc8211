"""SparkSession bootstrap for ``perfbench``, which imports it as
``jobs._session``: the shared :func:`repro.session.get_spark`, re-exported."""
from repro.session import get_spark

__all__ = ["get_spark"]
