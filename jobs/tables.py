"""Reproduce one paper table (III–VIII) and print it as markdown. Usage:
``spark-submit jobs/tables.py TABLE [scale]`` (TABLE: 3–8; scale: test|bench)."""
import sys

from repro.harness import table3, table4, table5, table6, table7, table8
from repro.harness.common import fmt_markdown
from repro.session import get_spark

TABLES = {
    3: ("Table III — Complex discovery tasks", table3.run_table3),
    4: ("Table IV — Optimizer effectiveness", table4.run_table4),
    5: ("Table V — MC precision: BLEND vs MATE", table5.run_table5),
    6: ("Table VI — Union search quality: BLEND vs Starmie-sim", table6.run_table6),
    7: ("Table VII — Correlation-based discovery", table7.run_table7),
    8: ("Table VIII — Index storage", table8.run_table8),
}

if __name__ == "__main__":
    n, scale = int(sys.argv[1]), sys.argv[2] if len(sys.argv) > 2 else "bench"
    title, run = TABLES[n]
    spark = get_spark(f"table{n}")
    print(f"\n## {title}\n")
    print(fmt_markdown(run(spark, scale=scale)))
    spark.stop()
