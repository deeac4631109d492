"""Spans around the public calls into mvpsim, recorded from outside.

A `Tracer` patches the module functions and class methods on the measured
path, and instruments each machine the drivers or the CLI build, so the
untraced runs call mvpsim unwrapped. Spans (name, start, end, parent,
job id) stay in memory until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# Contract operations and their parallel counterparts, wrapped per machine.
CONTRACT_OPS = (
    "load_matrix", "load_vector", "sync_columns", "set_output", "report_output", "reset_output",
)
PARALLEL_OPS = (
    "parallel_load_matrix", "parallel_load_vector", "parallel_sync",
    "parallel_ladder_step", "parallel_report_output", "parallel_reset_output",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.jobs: dict[int, tuple[str, str | None]] = {0: ("setup", None)}  # id -> (kind, cfg)
        self._stack: list[int] = []
        self._job = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def job(self, kind: str, cfg: str | None) -> None:
        """Attribute the spans that follow to a new job of `kind` on `cfg`."""
        self._job = len(self.jobs)
        self.jobs[self._job] = (kind, cfg)

    def end_job(self) -> None:
        """Attribute the spans that follow to set-up again."""
        self._job = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def instrument(self, machine):
        """Wrap the contract, parallel and snapshot calls of one machine."""
        layer = "axis_ladder" if machine.backend == "axis" else "wall_light"
        for op in CONTRACT_OPS:
            setattr(machine, op, self.wrap(f"contract.{op}", getattr(machine, op)))
        for op in PARALLEL_OPS:
            if hasattr(machine, op):
                setattr(machine, op, self.wrap(f"{layer}.{op}", getattr(machine, op)))
        log = machine.oplog
        log.snapshot = self.wrap("contract.snapshot", log.snapshot)
        return machine

    def install(self, mods) -> None:
        """Patch the path through drivers, cli and bits (see `Modules`)."""
        bits, drivers, cli = mods.bits, mods.drivers, mods.cli
        make, matmul = drivers.make_machine, self.wrap("drivers.matmul", drivers.matmul)

        for owner in (bits.BitMatrix, bits.BitVector):
            fn = owner.__dict__["random"].__func__
            self._patch(owner, "random", classmethod(self.wrap("bits.random", fn)))
        for name in ("parse_matrix", "serialize_matrix"):
            self._patch(bits, name, self.wrap(f"bits.{name}", bits.__dict__[name]))
        for owner in (drivers, cli):
            self._patch(owner, "make_machine", lambda backend, n: self.instrument(make(backend, n)))
            self._patch(owner, "matmul", matmul)
        self._patch(drivers, "matvec", self.wrap("drivers.matvec", drivers.__dict__["matvec"]))
        self._patch(cli, "main", self.wrap("cli.main", cli.__dict__["main"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_by(self) -> dict[tuple[str, str | None], float]:
        """Total self seconds by (span name, cfg of the span's job)."""
        out: dict[tuple[str, str | None], float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[s[0], self.jobs[s[4]][1]] += own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s, own in zip(self.spans, self.self_times()):
                kind, cfg = self.jobs[s[4]]
                f.write(json.dumps({
                    "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                    "job": s[4], "kind": kind, "cfg": cfg, "self": own,
                }) + "\n")
