"""The mvpsim benchmark. Run from the repository root:

    python3 perfbench/run.py --workload dense-matmul --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

With --trace 0 it sets up several times, then runs rounds of jobs for
--seconds and prints the end-to-end metrics, with host times scaled to a
reference speed measured between the jobs (speed.py); with --trace 1 it runs the
workload's fixed job list untraced and then traced, and prints the
per-layer metrics. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. --self-check runs each
workload tiny on the real machines and on fault-injected ones, and exits
non-zero unless the real ones pass and every fault is caught. Metric names,
units and what they mean are in perfbench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

from checker import CONFIGS, load_ledger, pass_ledger
from harness import FAULTS, ROOT, SRC, Harness, setup
from speed import Speed
from tracing import CONTRACT_OPS, PARALLEL_OPS, Tracer
from workloads import WORKLOADS

# Set up at least SETUP_MIN times, and again while under SETUP_BUDGET_S in
# total (at most SETUP_MAX times): cheap set-ups get a steadier median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.5
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
HELD_OUT_SEED = 7177  # reserved for confirming a change; never used while writing one
SEQ_CONFIGS = [cfg for cfg, (_, mode) in CONFIGS.items() if mode == "seq"]
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def ledger_categories(cfg: str) -> list[str]:
    """Categories the closed form charges on `cfg`. Always-zero ones
    (wall_shift, the other backend's sensing op, scan_step in par) are
    checked as 0 by every job but not reported."""
    return sorted(set(load_ledger(1, cfg).counts) | set(pass_ledger(1, 0, 1, 1, cfg).counts))


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile of TAIL_PERCENTILES with at least 10 values
    beyond it, and the value there."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        k = int(len(ordered) * pct / 100)
        if len(ordered) - k - 1 >= 10:
            return pct, ordered[k]
    return 0.0, ordered[0]


def settle() -> None:
    """Collect set-up garbage and move what survives out of the collector's
    view, so that collections during timed jobs do not scan the inputs
    and expected ledgers the benchmark holds."""
    gc.collect()
    gc.freeze()


def end_to_end(workload, seed: int, seconds: int, tmpdir: str):
    """Set up several times, then run rounds for `seconds`; returns the
    end-to-end metrics, every harness used and run facts for the log.
    Host times are scaled to the reference speed (see speed.py)."""
    speed = Speed()
    setups, harnesses = [], []
    while len(setups) < SETUP_MIN or (sum(s for _, s in setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
        gc.unfreeze()
        gc.collect()
        speed.burst()
        start = perf_counter()
        mods, sh, elapsed = setup(workload, seed, tmpdir)
        setups.append((start, elapsed))
        harnesses.append(sh)
    speed.burst()
    settle()
    h = Harness(mods, speed=speed)
    harnesses.append(h)
    rounds, deadline = 0, perf_counter() + seconds
    while rounds == 0 or perf_counter() < deadline:
        workload.round(h, rounds)
        rounds += 1
        if rounds == 1:
            # Later rounds only grow the benchmark's own timing lists, by
            # as many entries as the host's speed lets the run finish.
            rss_mb = peak_rss_mb()
    speed.burst()
    metrics = {"setup_s": statistics.median(speed.scale(*s) for s in setups)}
    raw_ms = {}
    for cfg in CONFIGS:
        scaled = [speed.scale(*job) for job in zip(h.starts[cfg], h.times[cfg])]
        metrics[f"job_ms_p50.{cfg}"] = statistics.median(scaled) * 1e3
        metrics[f"sim_ops_per_s.{cfg}"] = statistics.median(
            ops / t for ops, t in zip(h.ops[cfg], scaled)
        )
        raw_ms[cfg] = statistics.median(h.times[cfg]) * 1e3
    metrics["peak_rss_mb"] = rss_mb
    info = {
        "rounds": rounds, "jobs": {cfg: len(h.times[cfg]) for cfg in CONFIGS},
        "setups_s": [s for _, s in setups], "raw_job_ms_p50": raw_ms,
        "probe_ms_mean": speed.probe_ms(), "probes": len(speed.stamps),
    }
    return metrics, harnesses, info


def per_layer(workload, seed: int, tmpdir: str):
    """Traced set-up, then the fixed job list untraced and traced; returns
    the per-layer metrics, every harness used and run facts for the log."""
    tracer = Tracer()
    mods, sh, _ = setup(workload, seed, tmpdir, tracer=tracer)
    tracer.uninstall()
    settle()
    plain = Harness(mods)
    for r in range(workload.trace_rounds):
        workload.round(plain, r)
    tracer.install(mods)
    traced = Harness(mods, tracer)
    for r in range(workload.trace_rounds):
        workload.round(traced, r)
    tracer.uninstall()

    own = tracer.self_by()
    m: dict[str, float] = {}
    for op in CONTRACT_OPS:
        for cfg in SEQ_CONFIGS:
            m[f"contract.{op}_s.{cfg}"] = own[f"contract.{op}", cfg]
    for op in PARALLEL_OPS:
        m[f"axis_ladder.{op}_s"] = own[f"axis_ladder.{op}", "axis-par"]
    for cfg in CONFIGS:
        m[f"contract.snapshot_s.{cfg}"] = own["contract.snapshot", cfg]
        m[f"drivers.matvec_self_s.{cfg}"] = own["drivers.matvec", cfg]
        m[f"drivers.matmul_self_s.{cfg}"] = own["drivers.matmul", cfg]
        m[f"cli.self_s.{cfg}"] = own["cli.main", cfg]
        m[f"bench.job_self_s.{cfg}"] = own["bench.job", cfg]
    for name in ("random", "parse_matrix", "serialize_matrix"):
        m[f"bits.{name}_s"] = sum(v for (span, _), v in own.items() if span == f"bits.{name}")

    # Per timed traced job: its root span and its spans' self times.
    job_of = {j: cfg for j, (kind, cfg) in tracer.jobs.items() if kind == "job"}
    root, self_sum = {}, {}
    passes = {cfg: [] for cfg in CONFIGS}
    for s, t in zip(tracer.spans, tracer.self_times()):
        if s[4] not in job_of:
            continue
        self_sum[s[4]] = self_sum.get(s[4], 0.0) + t
        if s[0] == "bench.job":
            root[s[4]] = s[2] - s[1]
        elif s[0] == "drivers.matvec":
            passes[job_of[s[4]]].append(s[2] - s[1])
    for cfg in CONFIGS:
        jobs = [j for j, c in job_of.items() if c == cfg]
        traced_s = sum(root[j] for j in jobs)
        m[f"trace.self_sum_frac.{cfg}"] = sum(self_sum[j] for j in jobs) / traced_s
        m[f"trace.overhead_frac.{cfg}"] = traced_s / sum(plain.times[cfg]) - 1.0
        ms = [p * 1e3 for p in passes[cfg]]
        tenth = max(1, len(ms) // 10)
        pct, value = tail(ms)
        m[f"drivers.matvec_ms_p50.{cfg}"] = statistics.median(ms)
        m[f"drivers.matvec_ms_tail.{cfg}"] = value
        m[f"drivers.matvec_tail_pct.{cfg}"] = pct
        m[f"drivers.matvec_passes.{cfg}"] = len(ms)
        m[f"drivers.matvec_ms_rise.{cfg}"] = statistics.median(ms[-tenth:]) / statistics.median(ms[:tenth])

        ledger = traced.ledger[cfg]
        for cat in ledger_categories(cfg):
            m[f"ledger.{cat}.{cfg}"] = ledger[cat]
        toggles = ledger["column_activate"] + ledger["column_deactivate"]
        m[f"sync.useful_toggle_frac.{cfg}"] = traced.useful[cfg] / toggles if toggles else 1.0
        m[f"set_output.open_row_frac.{cfg}"] = ledger["output_switch"] / traced.rows[cfg]
    m["ledger.phases.axis-par"] = traced.phases["axis-par"]

    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.jsonl")
    tracer.write(spans_path)
    info = {"spans": os.path.relpath(spans_path, ROOT), "spans_count": len(tracer.spans)}
    return m, [sh, plain, traced], info


def self_check(seed: int, tmpdir: str) -> int:
    """Tiny runs of every workload: the real machines must pass, and each
    fault-injected axis machine must make timed jobs fail."""
    bad = 0
    for name, cls in WORKLOADS.items():
        for fault in (None, *FAULTS):
            workload = cls(quick=True)
            _, sh, _ = setup(workload, seed, tmpdir, fault=fault)
            h = Harness(sh.mods)
            workload.round(h, 0)
            frac = h.failed / h.attempted
            ok = (frac > 0) if fault else (frac == 0 and sh.failed == 0)
            bad += not ok
            print(f"{name:14} {fault or 'real':13} failed_frac={frac:.3f} "
                  f"({h.failed}/{h.attempted}) {'ok' if ok else 'WRONG'}")
            for e in (sh.errors + h.errors)[: 0 if fault else 5]:
                print(f"    {e}")
    print("self-check:", "ok" if bad == 0 else f"{bad} wrong")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true", help="prove the checks catch faults")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mvpsim", "__init__.py")):
        print(f"error: no mvpsim package under {SRC}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        if args.self_check:
            return self_check(args.seed, tmpdir)
        return run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, tmpdir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](quick=False)
    if args.trace:
        metrics, harnesses, info = per_layer(workload, args.seed, tmpdir)
    else:
        metrics, harnesses, info = end_to_end(workload, args.seed, args.seconds, tmpdir)
    if sorted(metrics) != sorted(w["name"] for w in wanted):
        missing = sorted({w["name"] for w in wanted} ^ set(metrics))
        print(f"error: metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 3
    attempted = sum(h.attempted for h in harnesses)
    failed = sum(h.failed for h in harnesses)
    for h in harnesses:
        for e in h.errors:
            print(f"failed: {e}", file=sys.stderr)
    info.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {
            w["name"]: {"n": WORKLOADS[w["name"]].n, "density": WORKLOADS[w["name"]].density,
                        "why": w["why"]}
            for w in spec["workloads"]
        },
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
