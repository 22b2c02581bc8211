"""Print our Table-II analogue: statistics of every synthetic lake used in
the reproduction, built with the bench parameters of the table harnesses.
Usage: ``python jobs/lake_stats.py``."""
from repro.harness import table5, table6
from repro.harness.common import fmt_markdown
from repro.harness.table3 import build_combined_lake
from repro.harness.table4 import build_table4_lake
from repro.harness.table7 import build_table7_lake
from repro.lake import union_lake, webtable_lake


def main() -> list[dict]:
    lakes = {
        "table3-combined": build_combined_lake("bench"),
        "table4-optimizer": build_table4_lake("bench"),
        "table5-dwtc-like": webtable_lake(seed=300, **table5.SCALES["bench"]["dwtc"]),
        "table6-santos-like": union_lake(seed=400, **table6.SCALES["bench"]["lakes"]["santos-like"]),
        "table7-nyc-like": build_table7_lake("bench"),
    }
    rows = [lake.stats_row(name) for name, lake in lakes.items()]
    print("\n## Table II analogue — synthetic lakes used here\n")
    print(fmt_markdown(rows))
    return rows


if __name__ == "__main__":
    main()
