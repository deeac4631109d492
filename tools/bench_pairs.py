"""Paired before/after runs of the benchmark: a parent commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload dense-matmul \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --out BENCH_x.json

It exports the parent commit with `git archive` into a temporary directory
and refuses unless `perfbench/` and `BENCHMARK.json` are the same there as
in the working tree, so both sides run the same harness. Each seed is one
pair (a seed given k times makes k pairs): `perfbench/run.py` runs once on
each side, and the side that runs first alternates from pair to pair.
Every `info` and result line is kept, so each run's `correct` and `failed`
are in the output. For each workload and end-to-end metric it also holds
the parent's and the change's medians and quartiles, and how many pairs
each side won: a pair is won by the side whose value is strictly better in
the metric's direction, and a tie counts for neither; and whether the gap
between the medians exceeds the spread between the parent's quartiles,
in the better direction (`beyond_spread`) or the worse one
(`worse_beyond_spread`, a regression beyond noise), both printed in the
batch summary. The Python version, nproc and both commits are
recorded too, with the files where the working tree differs from its
commit. An existing --out file gets this invocation appended as one more
batch. A claim or a regression check on cli-bench needs a second batch:
one batch of it once read an 8% gain that the in-process cost of the
changed code could not explain, and a batch of nearly the same code read
1%. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED = ("perfbench", "BENCHMARK.json")  # must match on both sides


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics as
    statistics.quantiles(method="inclusive") does; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, both sides' medians and quartiles and the
    pairs each side won. `pairs` holds {"workload", "parent", "change"},
    each side a result line ({"metrics": {name: {"value": v}}, ...});
    `metrics` holds {"name", "better"} as in BENCHMARK.json."""
    out: dict = {}
    for workload in sorted({p["workload"] for p in pairs}):
        mine = [p for p in pairs if p["workload"] == workload]
        table = out[workload] = {}
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            sides = {s: [p[s]["metrics"][name]["value"] for p in mine] for s in ("parent", "change")}
            row = table[name] = {"better": m["better"], "pairs": len(mine)}
            for side, values in sides.items():
                q1, med, q3 = quartiles(values)
                row[side] = {"median": med, "q1": q1, "q3": q3, "values": values}
            gain = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
            row["change_wins"] = sum(g > 0 for g in gain)
            row["parent_wins"] = sum(g < 0 for g in gain)
            row["ties"] = sum(g == 0 for g in gain)
            # The change's median gain, or loss, beats the spread of the parent's runs.
            parent = row["parent"]
            gap = sign * (row["change"]["median"] - parent["median"])
            spread = parent["q3"] - parent["q1"]
            row["beyond_spread"] = gap > spread
            row["worse_beyond_spread"] = -gap > spread
            if row["parent"]["median"]:
                row["ratio"] = row["change"]["median"] / row["parent"]["median"]
    return out


def export(rev: str, dest: str) -> None:
    """Write the tree of commit `rev` into `dest`."""
    data = subprocess.run(("git", "archive", "--format=tar", rev), cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def bench(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One run of perfbench/run.py in the tree at `root`: its info and
    result lines. Raises RuntimeError, with the run's error output, if it
    exits non-zero or prints no result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith("{")]
    info = next((x["info"] for x in lines if "info" in x), None)
    result = next((x for x in reversed(lines) if "metrics" in x), None)
    if proc.returncode or result is None:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"info": info, "result": result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *SHARED)
    if subprocess.run(("git", "diff", "--quiet", parent, "--", *SHARED), cwd=ROOT).returncode \
            or untracked:
        print(f"error: {' and '.join(SHARED)} differ between {parent[:12]} and the working "
              "tree; both sides must run the same benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        export(parent, tmp)
        roots = {"parent": tmp, "change": ROOT}
        for workload in args.workload:
            for seed in args.seeds:
                order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    start = time.perf_counter()
                    run = bench(roots[side], workload, seed, args.seconds)
                    pair[side] = run["result"]
                    pair[f"{side}_info"] = run["info"]
                    r = run["result"]
                    print(f"{workload} seed {seed} {side:6} correct={r['correct']} "
                          f"failed={r['failed']} {time.perf_counter() - start:.0f}s",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
    batch = {
        "parent": parent,
        "change": git("rev-parse", "HEAD"),
        # The runs use the working tree: its edits and its untracked sources.
        "change_modified": git("diff", "--name-only", "HEAD").split()
        + git("ls-files", "--others", "--exclude-standard", "--", "src").split(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seconds": args.seconds,
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
    }
    batches = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            batches = json.load(f)["batches"]
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"batches": batches + [batch]}, f, indent=1)
        f.write("\n")
    for workload, table in batch["summary"].items():
        for name, row in table.items():
            print(f"{workload:13} {name:24} parent {row['parent']['median']:.6g} "
                  f"change {row['change']['median']:.6g} ratio {row.get('ratio', float('nan')):.3f} "
                  f"wins {row['change_wins']}/{row['pairs']} ties {row['ties']}"
                  f"{' BEYOND SPREAD' if row['beyond_spread'] else ''}"
                  f"{' WORSE BEYOND SPREAD' if row['worse_beyond_spread'] else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
