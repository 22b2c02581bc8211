"""One benchmark run: set-up, measured loop, output checks and metrics.

``run.py`` puts the checkout's ``src`` and root on ``sys.path`` before
importing this module.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from jobs._session import get_spark
from repro.core import build_index

import check
import spans
import workloads

WORK = Path(__file__).resolve().parent.parent / ".perfbench"
#: lake and index builds per set-up; setup_s and index_build_s take their
#: median, so the first, cold build does not set it
SETUP_REPS = 3


def _median(xs):
    return statistics.median(xs) if xs else None


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _or0(stat, xs):
    """``stat(xs)``, or 0 for a layer the workload's operations never reach."""
    return stat(xs) if xs else 0.0


class Bench:
    """One run: the session, the set-up, the measured operations and their checks."""

    def __init__(self, args):
        self.args = args
        t0 = time.perf_counter()
        self.spark = get_spark("perfbench")
        self.session_s = time.perf_counter() - t0
        self.tracer = spans.Tracer()
        self.jobs = spans.JobCounter(self.spark.sparkContext)
        self.capture = check.Capture(tracer=self.tracer)
        self.records: list[dict] = []  # one per operation run

    # --- set-up ----------------------------------------------------------
    def setup(self) -> None:
        traced = self.args.trace == 1
        self.setup_reps, self.builds, index = [], [], None
        for r in range(SETUP_REPS):
            if index is not None:
                index.df.unpersist(blocking=True)
            self.tracer.op = -1 - r
            with spans.instrument(self.tracer) if traced else nullcontext():
                t0 = time.perf_counter()
                lake = workloads.build_lake()
                t1 = time.perf_counter()
                with self.tracer.span("index.build"):
                    index = build_index(self.spark, lake, view=workloads.VIEW)
                t2 = time.perf_counter()
            self.setup_reps.append(t2 - t0)
            self.builds.append(t2 - t1)
        self.lake, self.index = lake, index
        self.oracle = check.DuckOracle(index.pdf, workloads.VIEW)
        self.index_ok = check.check_index(index, self.oracle)
        self.rec_index = replace(
            index, spark=check.RecordingSession(self.spark, self.capture, self.tracer))
        self.duck_index = replace(index, spark=check.DuckSession(self.oracle))

    # --- measurement -----------------------------------------------------
    def run_op(self, wl, cycle: int, cls: str, traced: bool) -> dict:
        op_id = len(self.records)
        op = wl.op(cycle, cls)
        self.capture.op = self.tracer.op = op_id
        rec = dict(op=op_id, cycle=cycle, cls=cls, traced=traced, size=op.size,
                   plan=op.plan, ok=True, out=None, seconds=None)
        if traced:
            self.jobs.start(op_id)
        with spans.instrument(self.tracer) if traced else nullcontext():
            with self.tracer.span("op", cls=cls):
                t0 = time.perf_counter()
                try:
                    rec["out"] = op.call()
                except Exception:  # one failing operation must not end the run
                    rec["ok"] = False
                    print(f"# op {op_id} ({cls}) raised:\n" + traceback.format_exc())
                rec["seconds"] = time.perf_counter() - t0
        if traced:
            self.jobs.stop()
        self.records.append(rec)
        return rec

    def measure(self, wl) -> None:
        traced = self.args.trace == 1
        for op in wl.warmup():  # inputs of their own, not measured
            op.call()
        self.capture.statements.clear()
        busy, cycle = 0.0, 0
        while busy < self.args.seconds:
            for cls in wl.classes:
                # a traced run runs each operation both ways, alternating the order
                pair = len(self.records) // 2
                for mode in ([pair % 2 == 0, pair % 2 == 1] if traced else [False]):
                    busy += self.run_op(wl, cycle, cls, mode)["seconds"]
            cycle += 1
        self.measured_s = busy

    # --- checks ----------------------------------------------------------
    def run_checks(self) -> None:
        bad, self.duck_times = check.check_statements(self.oracle, self.capture.statements)
        seen, self.bno = set(), {}
        for rec in self.records:
            if rec["op"] in bad:
                rec["ok"] = False
            key = (rec["cycle"], rec["cls"])
            if rec["plan"] is not None and rec["ok"] and key not in seen:
                seen.add(key)
                self.bno[rec["op"]] = check.bno_mismatch(
                    rec["plan"], self.duck_index, rec["out"].result)

    # --- metrics ---------------------------------------------------------
    def class_p50_ms(self) -> dict[str, float]:
        """Median latency of each operation class."""
        by_cls: dict[str, list[float]] = {}
        for r in self.records:
            if r["ok"]:
                by_cls.setdefault(r["cls"], []).append(r["seconds"] * 1e3)
        return {c: _median(v) for c, v in by_cls.items()}

    def end_to_end(self) -> dict:
        # the classes' latencies differ by up to 3x, so the median of all
        # operations falls in the gap between two classes and jumps with
        # their extremes; the geometric mean of the class medians does not
        p50 = list(self.class_p50_ms().values())
        n_ok = sum(r["ok"] for r in self.records)
        return {
            "latency_p50_ms": (math.exp(_mean([math.log(x) for x in p50])), "ms"),
            "ops_per_s": (n_ok / self.measured_s, "1/s"),
            "index_build_s": (_median(self.builds), "s"),
            "index_disk_mb": (self.disk_bytes / 1e6, "MB"),
            "setup_s": (self.session_s + _median(self.setup_reps), "s"),
        }

    def reference_timings(self) -> dict:
        def med_ms(sql, n):
            ts = []
            for _ in range(n):
                t0 = time.perf_counter()
                self.spark.sql(sql).collect()
                ts.append((time.perf_counter() - t0) * 1e3)
            return _median(ts)

        return {"spark.select1_ms": (med_ms("SELECT 1", 20), "ms"),
                "spark.count_ms": (med_ms(f"SELECT COUNT(*) FROM {workloads.VIEW}", 10), "ms")}

    def per_layer(self) -> dict:
        tr = self.tracer
        melts = tr.named("index.melt")  # the set-up's builds
        m = {
            "setup.session_s": (self.session_s, "s"),
            "setup.cold_build_s": (self.builds[0], "s"),
            "index.melt_s": (_median([s.seconds for s in melts]), "s"),
            "index.ingest_s": (_median([s.parent.seconds - s.seconds for s in melts]), "s"),
            "index.rows": (len(self.index.pdf), "count"),
            "index.write_s": (self.write_s, "s"),
        }
        m.update(self.reference_timings())
        own = [r for r in self.records if r["traced"]]
        first = [r for r in own if r["cycle"] == 0]
        counts = [self.jobs.counts(r["op"]) for r in first]
        for i, name in enumerate(("jobs", "stages", "tasks")):
            m[f"spark.{name}"] = (_mean([c[i] for c in counts]), "count")
        m.update(self._op_layers(own))
        # each operation ran traced and untraced: the median of the paired
        # differences, so the mix of operation classes cancels out
        pairs: dict = {}
        for r in self.records:
            if r["ok"]:
                pairs.setdefault((r["cycle"], r["cls"]), {})[r["traced"]] = r["seconds"]
        m["trace.overhead_ms"] = (_median(
            [(p[True] - p[False]) * 1e3 for p in pairs.values() if len(p) == 2]), "ms")
        return m

    def _op_layers(self, recs: list[dict]) -> dict:
        """Seeker, DuckDB, executor and cost-model metrics of the traced
        operations ``recs``. Times are medians over calls; counts are means
        per call or plan over the first cycle, so they repeat exactly."""
        tr, m = self.tracer, {}
        ops = {r["op"] for r in recs}
        first = {r["op"] for r in recs if r["cycle"] == recs[0]["cycle"]}
        runs = tr.named("seeker.run", ops)
        kids: dict[int, list] = {}
        for s in tr.spans:
            if s.parent is not None and s.parent.name == "seeker.run":
                kids.setdefault(id(s.parent), []).append(s)
        for t in ("SC", "KW", "MC", "C"):
            calls = [s for s in runs if s.attrs["type"] == t]
            if not calls:
                continue

            def part_ms(s, names):
                return 1e3 * sum(c.seconds for c in kids.get(id(s), []) if c.name in names)

            fc = [s for s in calls if s.op in first]
            m.update({
                f"seekers.{t}.sqlgen_ms": (_median([part_ms(s, {"seeker.sql"}) for s in calls]), "ms"),
                f"seekers.{t}.exec_ms": (_median(
                    [part_ms(s, {"spark.sql", "spark.collect"}) for s in calls]), "ms"),
                f"seekers.{t}.post_ms": (_median([s.self_seconds * 1e3 for s in calls]), "ms"),
                f"seekers.{t}.sql_chars": (_mean([s.attrs["sql_chars"] for s in fc]), "count"),
                f"seekers.{t}.sql_rows": (_mean(
                    [sum(c.attrs.get("rows", 0) for c in kids.get(id(s), [])) for s in fc]),
                    "count"),
            })
            if t == "MC":
                sql_rows = sum(s.attrs["sql_rows"] for s in fc)
                bloom = sum(s.attrs["bloom_rows"] for s in fc)
                tp = sum(s.attrs["tp_rows"] for s in fc)
                m["seekers.MC.bloom_keep"] = (bloom / sql_rows if sql_rows else 0.0, "ratio")
                m["seekers.MC.tp_ratio"] = (tp / bloom if bloom else 0.0, "ratio")
            duck = [secs * 1e3 for op, typ, secs in self.duck_times if typ == t and op in ops]
            if duck:
                m[f"duckdb.{t}_ms"] = (_median(duck), "ms")
        # the executor and the cost model: single seeker calls never reach
        # them, so on the seekers workload they take no time and issue nothing
        plans = [r for r in recs if r["plan"] is not None and r["ok"]]
        fp = [r["out"] for r in plans if r["op"] in first]
        m["executor.overhead_ms"] = (_or0(_median, [
            (r["out"].seconds - sum(r["out"].seeker_seconds.values())) * 1e3 for r in plans]), "ms")
        m["cost_model.rank_ms"] = (_or0(_median, [
            s.seconds * 1e3 for s in tr.named("cost_model.rank", ops)]), "ms")
        m["executor.statements"] = (_or0(_mean, [len(p.sqls) for p in fp]), "count")
        for kind in ("IN", "NOT IN", "COUNT-pushdown"):
            name = "executor.rewrites." + kind.replace(" ", "_").replace("-", "_")
            m[name] = (_or0(_mean, [list(p.rewrites.values()).count(kind) for p in fp]), "count")
        m["executor.filter_ids"] = (_or0(_mean, [
            sum(s.attrs["filter_ids"] for s in runs if s.op == r["op"])
            for r in plans if r["op"] in first]), "count")
        m["executor.bno_mismatch_frac"] = (_or0(_mean, [float(v) for v in self.bno.values()]),
                                           "ratio")
        return m

    # --- wrap-up ---------------------------------------------------------
    def write_index(self) -> None:
        path = WORK / "index.parquet"
        t0 = time.perf_counter()
        self.disk_bytes = self.index.write_parquet(str(path))
        self.write_s = time.perf_counter() - t0
        shutil.rmtree(path, ignore_errors=True)

    def stop(self) -> None:
        """Stop Spark and wait until its JVM has exited."""
        from pyspark import SparkContext

        if hasattr(self, "oracle"):
            self.oracle.close()
        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            SparkContext._gateway = SparkContext._jvm = None

    def settings(self) -> dict:
        conf = self.spark.conf
        keys = ("spark.master", "spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
                "spark.sql.autoBroadcastJoinThreshold",
                "spark.sql.execution.arrow.pyspark.enabled", "spark.driver.memory")
        out = {}
        for k in keys:
            try:
                out[k] = conf.get(k)
            except Exception:  # no value set and no default
                out[k] = None
        out["spark.version"] = self.spark.version
        out.update(nproc=os.cpu_count(), lake_tables=self.lake.n_tables,
                   index_rows=len(self.index.pdf), seed=self.args.seed)
        return out


def run_one(args) -> int:
    t0 = time.perf_counter()
    bench = Bench(args)
    phases = {}

    def phase(name):
        phases[name] = time.perf_counter() - t0 - sum(phases.values())

    try:
        bench.setup()
        phase("setup")
        wl = workloads.WORKLOADS[args.workload](bench.lake, bench.rec_index, args.seed)
        phase("inputs")
        bench.measure(wl)
        phase("measure")
        bench.run_checks()
        phase("checks")
        bench.write_index()
        settings = bench.settings()
        metrics = bench.per_layer() if args.trace == 1 else bench.end_to_end()
    finally:
        bench.stop()
    phase("wrap_up")
    print("# phase seconds " + " ".join(f"{k}={v:.1f}" for k, v in phases.items()))
    return report(args, bench, settings, metrics)


def report(args, bench, settings, metrics) -> int:
    recs = bench.records
    failed = sum(not r["ok"] for r in recs)
    lat = sorted(r["seconds"] * 1e3 for r in recs if r["ok"])
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# settings " + json.dumps(settings, sort_keys=True))
    print(f"# operations={len(recs)} failed={failed} failed_frac={failed / len(recs):.4f} "
          f"measured_s={bench.measured_s:.3f} index_check={'ok' if bench.index_ok else 'FAILED'}")
    if bench.bno:
        frac = sum(bench.bno.values()) / len(bench.bno)
        print(f"# bno_mismatch_frac={frac:.4f} ({sum(bench.bno.values())} of {len(bench.bno)} plans)")
    # the highest percentile with at least ten samples above it
    q = max(0, (len(lat) - 10)) / len(lat) if lat else 0
    if q >= 0.5:
        print(f"# latency_p{int(100 * q)}_ms={lat[int(q * len(lat)) - 1]:.3f} (n={len(lat)})")
    else:
        print(f"# no percentile above p50 has ten samples above it (n={len(lat)})")
    print("# class p50 ms: " + ", ".join(f"{c}={v:.1f}" for c, v in bench.class_p50_ms().items()))
    sizes: dict[str, list[int]] = {}
    for r in recs:
        if r["size"] is not None:
            sizes.setdefault(r["cls"], []).append(r["size"])
    if sizes:
        print("# |Q| per class, min/median/max: " + ", ".join(
            f"{c}={min(v)}/{statistics.median(v):g}/{max(v)}" for c, v in sizes.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    detail = dict(args=vars(args), settings=settings,
                  metrics={k: v[0] for k, v in metrics.items()},
                  operations=[{k: r[k] for k in ("op", "cycle", "cls", "traced", "size",
                                                  "ok", "seconds")} for r in recs],
                  bno={str(k): v for k, v in bench.bno.items()})
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0 and bench.index_ok,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
