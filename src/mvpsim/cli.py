"""Command-line front end for the matrix-vector processor simulator.

Subcommands:
  multiply   compute a Boolean matrix product from two matrix text files
  bench      run seeded scaling benchmarks and write an operation-count CSV
  selftest   exhaustive small-instance oracle checks plus backend agreement

Exit codes: 0 success, 1 a verification found a mismatch, 2 bad usage or
unreadable/malformed input. Benchmark rows count mechanical operations;
wall-clock time (`usec`) is informational only. `bench` writes it as 0
unless --timing is given, keeping its CSV reproducible for a fixed seed;
`multiply --ops` always records the measured time.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import time
from random import Random
from typing import Callable, Iterator, Mapping, Sequence, TextIO

from .bits import (
    BitMatrix,
    BitVector,
    ParseError,
    oracle_matmul,
    oracle_matvec,
    parse_matrix,
    serialize_matrix,
    serialize_vector,
)
from .contract import MvpMachine, OpCategory
from .drivers import BACKENDS, Mode, RunReport, make_machine, matmul, matvec

CSV_FIELDS: tuple[str, ...] = (
    "n",
    "backend",
    "mode",
    "total_ops",
    *(c.value for c in OpCategory),
    "parallel_phases",
    "usec",
)

MachineFactory = Callable[[int], MvpMachine]


def _read_matrix(path: str) -> BitMatrix:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_matrix(f.read())
    except (ParseError, UnicodeDecodeError) as e:
        raise ValueError(f"{path}: {e}") from None


def _bench_row(report: RunReport, usec: int) -> tuple[int | str, ...]:
    """One CSV row, its fields in CSV_FIELDS order."""
    ops = report.ops
    return (report.n, report.backend, report.mode.value, ops.total, *ops.counts.values(),
            ops.parallel_phases, usec)


def _check_csv_header(path: str) -> list[Sequence[str]]:
    """The records that rows appended to the CSV file at `path` must follow:
    the header if the file is missing or empty, one empty record, which
    ends the line, if its last line lacks its line break (a last CSV record
    may), else none. A non-empty file whose first line is not the header is
    refused, so that rows are never appended under another schema."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            first = f.readline()
            f.buffer.seek(-1 if first else 0, 2)  # the last byte, if any
            last = f.buffer.read(1)
    except FileNotFoundError:
        return [CSV_FIELDS]
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    header = ",".join(CSV_FIELDS)
    if first and first.rstrip("\r\n") != header:
        raise ValueError(f"{path}: first line is not the operation-count CSV header {header!r}")
    return [CSV_FIELDS] if not first else [] if last in b"\r\n" else [[]]


def _write_bench_rows(path: str, mode: str, rows: Sequence[Sequence[int | str]]) -> None:
    with open(path, mode, encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def _timed_product(args: argparse.Namespace, a: BitMatrix, b: BitMatrix) -> tuple[RunReport, int]:
    """The product of `a` and `b` on a fresh machine of `args.backend` in
    `args.mode`, and the microseconds that `matmul` took."""
    machine = make_machine(args.backend, a.n)
    start = time.perf_counter()
    report = matmul(machine, a, b, Mode(args.mode))
    return report, int((time.perf_counter() - start) * 1_000_000)


def cmd_multiply(args: argparse.Namespace) -> int:
    if args.ops:
        lead = _check_csv_header(args.ops)
    a = _read_matrix(args.a)
    b = _read_matrix(args.b)
    report, usec = _timed_product(args, a, b)
    text = serialize_matrix(report.result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if args.ops:
        _write_bench_rows(args.ops, "a", [*lead, _bench_row(report, usec)])
    if args.verify and report.result != oracle_matmul(a, b):
        print("verify: machine product disagrees with the oracle", file=sys.stderr)
        return 1
    return 0


def _number(text: str, option: str, parse: type[int] | type[float] = int) -> int | float:
    """`parse(text)` for a number option: ASCII digits with at most a leading
    `-` and, for a float, one `.`. int() and float() would also read `+4`,
    ` 4`, `1_0` and the digits of other scripts; here they raise a ValueError
    that names the option."""
    digits = text.removeprefix("-").replace(".", "", 1 if parse is float else 0)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid {option} value {text!r}; expected ASCII digits")
    return parse(text)


def _parse_sizes(text: str) -> list[int]:
    sizes = [_number(part, "--sizes") for part in text.split(",")]
    if any(n < 1 for n in sizes):
        raise ValueError(f"invalid --sizes value {text!r}; every size must be >= 1")
    return sizes


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    seed = _number(args.seed, "--seed")
    trials = _number(args.trials, "--trials")
    density = _number(args.density, "--density", float)
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    rows = [CSV_FIELDS]
    for n in sizes:
        for t in range(trials):
            rng = Random(f"{seed}:{n}:{t}")
            a = BitMatrix.random(n, rng, density)
            b = BitMatrix.random(n, rng, density)
            report, usec = _timed_product(args, a, b)
            rows.append(_bench_row(report, usec if args.timing else 0))
    _write_bench_rows(args.csv, "w", rows)
    return 0


def _all_matrices(n: int) -> Iterator[BitMatrix]:
    for cells in itertools.product((0, 1), repeat=n * n):
        yield BitMatrix(tuple(cells[i * n : (i + 1) * n] for i in range(n)))


def _print_failure(out: TextIO, name: str, a: BitMatrix, *values: BitVector | BitMatrix) -> None:
    """Print a counterexample: `values` are the right-hand operand (a vector
    for matvec, a matrix for matmul), the machine's result and the oracle's.
    A vector follows its label on the label's line, a matrix the line after."""
    vec = isinstance(values[0], BitVector)
    out.write(f"selftest: FAIL [{name}]: {'matvec' if vec else 'matmul'} disagrees with oracle\n")
    out.write("A:\n" + serialize_matrix(a))
    for label, value in zip(("V:" if vec else "B:", "machine:", "oracle:"), values):
        text = serialize_vector(value) if vec else serialize_matrix(value)
        out.write(f"{label:9}{text}" if vec else f"{label}\n{text}")


def run_selftest(
    out: TextIO | None = None, machine_factories: Mapping[str, MachineFactory] | None = None
) -> int:
    """Exhaustive small-instance checks against the brute-force oracle,
    plus the cross-backend blocking/occlusion agreement check.

    Returns 0 when every check passes, otherwise prints the first failing
    counterexample in the text format and returns 1. `machine_factories`
    is injectable so the test suite can aim the harness at deliberately
    broken machines and confirm it catches them.
    """
    out = out if out is not None else sys.stdout
    factories: dict[str, MachineFactory] = (
        dict(machine_factories) if machine_factories is not None else dict(BACKENDS)
    )

    for name, factory in factories.items():
        for n in (1, 2, 3):
            for a in _all_matrices(n):
                machine = factory(n)
                machine.load_matrix(a)
                for v in map(BitVector, itertools.product((0, 1), repeat=n)):
                    got = matvec(machine, v).result
                    want = oracle_matvec(a, v)
                    if got != want:
                        _print_failure(out, name, a, v, got, want)
                        return 1
        out.write(f"selftest: matvec vs oracle, exhaustive n<=3 [{name}]: ok\n")

    for name, factory in factories.items():
        for a in _all_matrices(2):
            for b in _all_matrices(2):
                got = matmul(factory(2), a, b).result
                want = oracle_matmul(a, b)
                if got != want:
                    _print_failure(out, name, a, b, got, want)
                    return 1
        out.write(f"selftest: matmul vs oracle, exhaustive n=2 [{name}]: ok\n")

    if "axis" in factories and "wall" in factories:
        rng = Random("mvpsim-selftest:duality")
        for _ in range(1000):
            n = rng.randint(1, 8)
            a = BitMatrix.random(n, rng)
            active = [j for j in range(n) if rng.random() < 0.5]
            axis, wall = machines = factories["axis"](n), factories["wall"](n)
            for machine in machines:
                machine.load_matrix(a)
                for j in active:
                    machine.activate_column(j)
            for i in range(n):
                if axis.move_ladder(i) != wall.observe_light(i):
                    out.write("selftest: FAIL: ladder stroke and light observation disagree\n")
                    out.write("A:\n" + serialize_matrix(a))
                    out.write(f"active columns: {sorted(active)}, row: {i}\n")
                    return 1
        out.write("selftest: ladder/light agreement on 1000 configs: ok\n")

    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvpsim",
        description=(
            "Simulate a mechanical Boolean matrix-vector processor and "
            "count its operations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--backend", required=True, choices=sorted(BACKENDS))
    machine.add_argument("--mode", required=True, choices=[m.value for m in Mode])

    p = sub.add_parser("multiply", parents=[machine], help="multiply two matrices from text files")
    p.add_argument("--a", required=True, metavar="FILE", help="left matrix file")
    p.add_argument("--b", required=True, metavar="FILE", help="right matrix file")
    p.add_argument("--out", metavar="FILE", help="write the product here instead of stdout")
    p.add_argument("--ops", metavar="CSVFILE", help="append an operation-count row here")
    p.add_argument("--verify", action="store_true", help="compare against the brute-force oracle")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("bench", parents=[machine], help="seeded scaling benchmark with CSV output")
    p.add_argument(
        "--sizes",
        required=True,
        help="comma-separated dimensions, e.g. 4,8,16; no upper bound, but time and "
        "memory grow as n^2",
    )
    p.add_argument("--seed", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--csv", required=True, metavar="FILE")
    p.add_argument(
        "--density", default="0.5", help="probability a generated cell is 1"
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock microseconds (off keeps the CSV reproducible)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="exhaustive small-instance checks against the oracle")
    p.set_defaults(func=lambda args: run_selftest())
    return parser


# Built once at import: every parse makes a fresh Namespace, so calls of
# main share no option state through it.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
