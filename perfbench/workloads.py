"""The three workloads. Each runs all configs on the same seeded inputs.

A workload generates and validates its inputs in `prepare` (part of
set-up), runs one untimed job per config in `warmup`, and runs one round
of jobs per config in `round`. The untraced run repeats rounds until its
time is up; the traced run does `trace_rounds` rounds, a fixed job list,
so that its ledger counts are exact for the seed.
"""

from __future__ import annotations

import os
from random import Random

from checker import CONFIGS, ledger_ok, load_ledger, matvec_mask, op_counts, pass_ledger
from checker import to_mask, transpose
from harness import MatmulCase, bench_argv, bench_expected, run_bench, validated


class DenseMatmul:
    """Fresh-machine matmul at n=256: per-toggle counter loops dominate."""

    name = "dense-matmul"
    n, density = 256, 0.5
    pool = 3  # input pairs, cycled over rounds
    trace_rounds = 2

    def __init__(self, quick: bool) -> None:
        if quick:
            self.n, self.pool = 16, 1

    def prepare(self, mods, seed: int, tmpdir: str) -> None:
        self.cases = [
            MatmulCase.make(mods, self.n, Random(f"{self.name}:{seed}:{k}"), self.density)
            for k in range(self.pool)
        ]

    def warmup(self, h) -> None:
        for cfg in CONFIGS:
            self.cases[0].run(h, cfg, timed=False)

    def round(self, h, r: int) -> None:
        for cfg in CONFIGS:
            self.cases[r % self.pool].run(h, cfg)


class StreamMatvec:
    """Long matvec streams at n=64: per-pass fixed costs and phase history."""

    name = "stream-matvec"
    n, density = 64, 0.5
    passes = 4000
    trace_rounds = 1

    def __init__(self, quick: bool) -> None:
        if quick:
            self.n, self.passes = 16, 50

    def prepare(self, mods, seed: int, tmpdir: str) -> None:
        n = self.n
        rng = Random(f"{self.name}:{seed}")
        self.a = mods.bits.BitMatrix.random(n, rng, self.density)
        a_cols = transpose(validated(mods, self.a, n), n)
        masks = [to_mask(mods.bits.BitVector.random(n, rng, 0.5))]
        while len(masks) < self.passes:
            i, j = rng.sample(range(n), 2)
            masks.append(masks[-1] ^ (1 << i) ^ (1 << j))
        self.vectors = [mods.bits.BitVector(tuple((m >> j) & 1 for j in range(n))) for m in masks]
        if [to_mask(v) for v in self.vectors] != masks:
            raise ValueError("stream vectors do not hold the generated bits")
        self.products = [matvec_mask(a_cols, m) for m in masks]
        self.expected = {
            cfg: [pass_ledger(n, p, m, b, cfg) for p, m, b in zip([0] + masks, masks, self.products)]
            for cfg in CONFIGS
        }

    def _load(self, h, cfg: str):
        """A fresh machine of `cfg` with the stream's matrix loaded."""
        d, parallel = h.mods.drivers, CONFIGS[cfg][1] == "par"

        def call():
            machine = d.make_machine(CONFIGS[cfg][0], self.n)
            (machine.parallel_load_matrix if parallel else machine.load_matrix)(self.a)
            return machine

        def check(machine):
            counts, phases = op_counts(machine.oplog.snapshot())
            want = load_ledger(self.n, cfg)
            return ledger_ok(counts, phases, want), counts, len(phases), want

        return h.job(cfg, call, check, timed=False)

    def _pass(self, h, cfg: str, machine, k: int, timed: bool) -> None:
        d, mode, v = h.mods.drivers, h.mods.mode(cfg), self.vectors[k]

        def check(report):
            counts, phases = op_counts(report.ops)
            want = self.expected[cfg][k]
            ok = to_mask(report.result) == self.products[k] and ledger_ok(counts, phases, want)
            return ok, counts, len(phases), want

        h.job(cfg, lambda: d.matvec(machine, v, mode), check, timed)

    def _stream(self, h, passes: int, timed: bool) -> None:
        machines = {cfg: self._load(h, cfg) for cfg in CONFIGS}
        for k in range(passes):
            for cfg, machine in machines.items():
                if machine is not None:
                    self._pass(h, cfg, machine, k, timed)

    def warmup(self, h) -> None:
        self._stream(h, 1, timed=False)

    def round(self, h, r: int) -> None:
        self._stream(h, self.passes, timed=True)


class CliBench:
    """In-process `mvpsim bench`: generation, validation, charging, CSV."""

    name = "cli-bench"
    sizes, density = (32, 64, 128), 0.1
    n = max(sizes)
    pool = 8  # job seeds, cycled over rounds
    trace_rounds = 8

    def __init__(self, quick: bool) -> None:
        if quick:
            self.sizes, self.pool = (8, 16), 2

    def prepare(self, mods, seed: int, tmpdir: str) -> None:
        self.jobs = []
        for k in range(self.pool):
            job_seed = seed * self.pool + k
            want = bench_expected(mods, self.sizes, job_seed, self.density)
            argv = {
                cfg: bench_argv(self.sizes, cfg, job_seed, self.density, os.path.join(tmpdir, f"{cfg}.csv"))
                for cfg in CONFIGS
            }
            self.jobs.append((argv, want))

    def warmup(self, h) -> None:
        self._round(h, 0, timed=False)

    def round(self, h, r: int) -> None:
        self._round(h, r, timed=True)

    def _round(self, h, r: int, timed: bool) -> None:
        argv, want = self.jobs[r % self.pool]
        for cfg in CONFIGS:
            run_bench(h, cfg, argv[cfg], want[cfg], timed)


WORKLOADS = {w.name: w for w in (DenseMatmul, StreamMatvec, CliBench)}
