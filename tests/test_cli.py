"""Command-line behavior: exit codes, files, CSV schema, fault detection."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from random import Random

import pytest

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    MachineStateError,
    Mode,
    OpCategory,
    WallLightMachine,
    make_machine,
    matmul,
    oracle_matmul,
    parse_matrix,
    serialize_matrix,
)
from mvpsim.cli import CSV_FIELDS, main, run_selftest

A4 = BitMatrix(((1, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 1, 1)))
GOLDEN_DIR = Path(__file__).parent / "data"


def write_matrix(path, a: BitMatrix) -> str:
    path.write_text(serialize_matrix(a), encoding="utf-8")
    return str(path)


class InvertedLadderMachine(AxisLadderMachine):
    """Deliberately broken: strokes through blocked rows and stops at clear ones."""

    def move_ladder(self, i: int) -> bool:
        if self.ladder_shifted(i):
            raise MachineStateError(f"ladder {i} is already shifted")
        self.oplog.charge(OpCategory.LADDER_MOVE)
        if self.row_blocked(i):
            self._clear_section(i)
            return True
        return False


class LyingLadderMachine(AxisLadderMachine):
    """Strokes correctly but reports the opposite outcome."""

    def move_ladder(self, i: int) -> bool:
        return not super().move_ladder(i)


class StuckColumnMachine(AxisLadderMachine):
    """Deliberately broken: a sync that switches every column off leaves
    column 0 on. The exhaustive matvec checks never make that sync, since
    the all-ones vector comes last in each matrix's stream there; a matrix
    product whose right factor has an all-ones column before an all-zeros
    one does."""

    def sync_columns(self) -> None:
        all_on = len(self.active_columns()) == self.n
        super().sync_columns()
        if all_on and not self.active_columns():
            self.activate_column(0)


class TestMultiply:
    def test_identity_to_stdout(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", A4)
        b = write_matrix(tmp_path / "b.txt", BitMatrix.identity(4))
        rc = main(["multiply", "--a", a, "--b", b, "--backend", "axis", "--mode", "seq"])
        assert rc == 0
        assert capsys.readouterr().out == serialize_matrix(A4)

    def test_out_file_round_trips(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", A4)
        b = write_matrix(tmp_path / "b.txt", A4)
        out = tmp_path / "prod.txt"
        rc = main(
            ["multiply", "--a", a, "--b", b, "--backend", "wall", "--mode", "seq",
             "--out", str(out)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert parse_matrix(out.read_text(encoding="utf-8")) == oracle_matmul(A4, A4)

    @pytest.mark.parametrize(
        "backend,mode", [("axis", "seq"), ("axis", "par"), ("wall", "seq")]
    )
    def test_verify_passes(self, tmp_path, backend, mode):
        a = write_matrix(tmp_path / "a.txt", A4)
        b = write_matrix(tmp_path / "b.txt", A4)
        rc = main(
            ["multiply", "--a", a, "--b", b, "--backend", backend, "--mode", mode,
             "--out", str(tmp_path / "o.txt"), "--verify"]
        )
        assert rc == 0

    def test_verify_mismatch_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "mvpsim.cli.oracle_matmul", lambda a, b: BitMatrix.zeros(a.n)
        )
        a = write_matrix(tmp_path / "a.txt", A4)
        b = write_matrix(tmp_path / "b.txt", BitMatrix.identity(4))
        rc = main(
            ["multiply", "--a", a, "--b", b, "--backend", "axis", "--mode", "seq",
             "--out", str(tmp_path / "o.txt"), "--verify"]
        )
        assert rc == 1
        assert "disagrees" in capsys.readouterr().err

    def test_wall_parallel_exits_2(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", A4)
        rc = main(["multiply", "--a", a, "--b", a, "--backend", "wall", "--mode", "par"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_matrix_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("101\n1x1\n010\n", encoding="utf-8")
        good = write_matrix(tmp_path / "b.txt", BitMatrix.identity(3))
        rc = main(["multiply", "--a", str(bad), "--b", good, "--backend", "axis", "--mode", "seq"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 2" in err
        assert "bad.txt" in err

    def test_crlf_files_still_multiply(self, tmp_path, capsys):
        # Files are read in text mode, so "\r\n" reaches the parser as "\n".
        paths = []
        for name, m in (("a.txt", A4), ("b.txt", BitMatrix.identity(4))):
            path = tmp_path / name
            path.write_bytes(serialize_matrix(m).replace("\n", "\r\n").encode())
            paths.append(str(path))
        rc = main(["multiply", "--a", paths[0], "--b", paths[1], "--backend", "axis",
                   "--mode", "seq", "--verify"])
        assert rc == 0
        assert capsys.readouterr().out == serialize_matrix(A4)

    def test_form_feed_row_break_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "ff.txt"
        bad.write_text("01\f10\n", encoding="utf-8")
        rc = main(["multiply", "--a", str(bad), "--b", str(bad), "--backend", "axis",
                   "--mode", "seq"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 1, column 3" in err and "ff.txt" in err

    def test_blank_first_line_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "blank.txt"
        bad.write_text("\n01\n10\n", encoding="utf-8")
        rc = main(["multiply", "--a", str(bad), "--b", str(bad), "--backend", "axis",
                   "--mode", "seq"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 1: expected 3 characters, found 0" in err and "blank.txt" in err

    @pytest.mark.parametrize("side", ["--a", "--b"])
    def test_undecodable_matrix_file_is_named(self, tmp_path, capsys, side):
        good = write_matrix(tmp_path / "good.txt", BitMatrix.identity(2))
        bad = tmp_path / "latin.txt"
        bad.write_bytes(b"01\n1\xff\n")
        files = {"--a": good, "--b": good, side: str(bad)}
        rc = main(["multiply", "--a", files["--a"], "--b", files["--b"], "--backend", "axis",
                   "--mode", "seq"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        good = write_matrix(tmp_path / "b.txt", BitMatrix.identity(3))
        rc = main(["multiply", "--a", str(tmp_path / "nope.txt"), "--b", good,
                   "--backend", "axis", "--mode", "seq"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", BitMatrix.identity(2))
        b = write_matrix(tmp_path / "b.txt", BitMatrix.identity(3))
        rc = main(["multiply", "--a", a, "--b", b, "--backend", "axis", "--mode", "seq"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "right-hand matrix" in err
        assert out == ""

    def test_unknown_backend_is_a_usage_error(self, tmp_path):
        a = write_matrix(tmp_path / "a.txt", A4)
        with pytest.raises(SystemExit) as exc:
            main(["multiply", "--a", a, "--b", a, "--backend", "gears", "--mode", "seq"])
        assert exc.value.code == 2

    def test_ops_file_accumulates_rows(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", A4)
        ops = tmp_path / "ops.csv"
        args = ["multiply", "--a", a, "--b", a, "--backend", "axis", "--mode", "seq",
                "--ops", str(ops), "--out", str(tmp_path / "o.txt")]
        assert main(args) == 0
        assert main(args) == 0
        with open(ops, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        for row in rows:
            assert row["n"] == "4"
            assert row["backend"] == "axis"
            assert row["mode"] == "seq"
            assert int(row["total_ops"]) <= 9 * 16
            assert int(row["usec"]) >= 0

    @pytest.mark.parametrize("backend,mode", [("axis", "seq"), ("axis", "par"), ("wall", "seq")])
    def test_ops_row_is_the_ledger_of_the_product(self, tmp_path, backend, mode):
        a = BitMatrix.random(6, Random(5), 0.3)
        b = BitMatrix.random(6, Random(6), 0.6)
        ops = tmp_path / "ops.csv"
        assert main(
            ["multiply", "--a", write_matrix(tmp_path / "a.txt", a),
             "--b", write_matrix(tmp_path / "b.txt", b), "--backend", backend, "--mode", mode,
             "--ops", str(ops), "--out", str(tmp_path / "o.txt")]
        ) == 0
        with open(ops, newline="", encoding="utf-8") as f:
            (row,) = csv.DictReader(f)
        want = matmul(make_machine(backend, 6), a, b, Mode(mode)).ops
        assert int(row.pop("usec")) >= 0
        assert row == {
            "n": "6", "backend": backend, "mode": mode, "total_ops": str(want.total),
            **{c.value: str(k) for c, k in want.counts.items()},
            "parallel_phases": str(want.parallel_phases),
        }

    @pytest.mark.parametrize("first", ["n,backend,mode,total_ops,wall_shift\n", "garbage"])
    def test_ops_file_with_another_header_exits_2(self, tmp_path, capsys, first):
        a = write_matrix(tmp_path / "a.txt", A4)
        ops, out = tmp_path / "ops.csv", tmp_path / "o.txt"
        ops.write_text(first, encoding="utf-8")
        args = ["multiply", "--a", a, "--b", a, "--backend", "axis", "--mode", "seq",
                "--ops", str(ops), "--out", str(out)]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert ops.read_text(encoding="utf-8") == first
        assert not out.exists()


    @pytest.mark.parametrize("rows", [0, 1])
    def test_ops_row_starts_a_line_after_an_unterminated_last_record(self, tmp_path, rows):
        a = write_matrix(tmp_path / "a.txt", A4)
        ops = tmp_path / "ops.csv"
        args = ["multiply", "--a", a, "--b", a, "--backend", "axis", "--mode", "seq",
                "--ops", str(ops), "--out", str(tmp_path / "o.txt")]
        assert main(args) == 0
        # The header alone, or the header and a row, without the last line break.
        lines = ops.read_text(encoding="utf-8").splitlines()[: 1 + rows]
        ops.write_text("\n".join(lines), encoding="utf-8")
        assert main(args) == 0
        with open(ops, newline="", encoding="utf-8") as f:
            records = list(csv.reader(f))
        assert records[0] == list(CSV_FIELDS)
        assert len(records) == 2 + rows
        assert all(len(r) == len(CSV_FIELDS) for r in records)

    def test_undecodable_ops_file_is_named(self, tmp_path, capsys):
        a = write_matrix(tmp_path / "a.txt", A4)
        ops, out = tmp_path / "ops.csv", tmp_path / "o.txt"
        ops.write_bytes(b"n,backend\xff\n")
        rc = main(["multiply", "--a", a, "--b", a, "--backend", "axis", "--mode", "seq",
                   "--ops", str(ops), "--out", str(out)])
        assert rc == 2
        assert f"error: {ops}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert ops.read_bytes() == b"n,backend\xff\n"
        assert not out.exists()


class TestBench:
    def run(self, tmp_path, name, extra=()):
        path = tmp_path / name
        rc = main(
            ["bench", "--sizes", "2,3", "--backend", "axis", "--mode", "seq",
             "--seed", "7", "--trials", "2", "--csv", str(path), *extra]
        )
        assert rc == 0
        return path

    def test_schema_and_bounds(self, tmp_path):
        path = self.run(tmp_path, "bench.csv")
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == list(CSV_FIELDS)
            rows = list(reader)
        assert len(rows) == 4  # two sizes, two trials
        for row in rows:
            n = int(row["n"])
            assert n in (2, 3)
            total = int(row["total_ops"])
            assert total <= 9 * n * n
            per_category = sum(int(row[c.value]) for c in OpCategory)
            assert per_category == total
            assert row["mode"] == "seq"
            assert int(row["parallel_phases"]) == 0
            assert row["usec"] == "0"

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        first = self.run(tmp_path, "one.csv")
        second = self.run(tmp_path, "two.csv")
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("density", ["0.5", "0.1"])
    @pytest.mark.parametrize("backend,mode", [("axis", "seq"), ("axis", "par"), ("wall", "seq")])
    def test_matches_golden_csv(self, tmp_path, backend, mode, density):
        # The golden files pin every ledger entry of a fixed-seed run, so an
        # engine change that moves one charge anywhere shows here.
        golden = GOLDEN_DIR / f"bench-{backend}-{mode}-d{density}.csv"
        path = tmp_path / golden.name
        rc = main(
            ["bench", "--sizes", "4,8,16,32,64", "--backend", backend, "--mode", mode,
             "--seed", "42", "--trials", "3", "--density", density, "--csv", str(path)]
        )
        assert rc == 0
        assert path.read_bytes() == golden.read_bytes()

    def test_parallel_phase_column(self, tmp_path):
        path = tmp_path / "par.csv"
        rc = main(
            ["bench", "--sizes", "4,8", "--backend", "axis", "--mode", "par",
             "--seed", "3", "--trials", "1", "--csv", str(path)]
        )
        assert rc == 0
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            n = int(row["n"])
            assert int(row["parallel_phases"]) == 7 * n + 1
            assert int(row["parallel_phases"]) <= 8 * n

    def test_wall_backend_rows(self, tmp_path):
        path = tmp_path / "wall.csv"
        rc = main(
            ["bench", "--sizes", "3", "--backend", "wall", "--mode", "seq",
             "--seed", "1", "--trials", "1", "--csv", str(path)]
        )
        assert rc == 0
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["backend"] == "wall"
        assert int(rows[0][OpCategory.LIGHT_OBSERVE.value]) > 0
        assert int(rows[0][OpCategory.LADDER_MOVE.value]) == 0

    def test_timing_flag_records_microseconds(self, tmp_path):
        path = self.run(tmp_path, "timed.csv", extra=("--timing",))
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert all(int(row["usec"]) >= 0 for row in rows)

    def test_unwritable_csv_exits_2(self, tmp_path, capsys):
        rc = main(
            ["bench", "--sizes", "2", "--backend", "axis", "--mode", "seq",
             "--seed", "1", "--trials", "1",
             "--csv", str(tmp_path / "missing" / "x.csv")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes", ["4,x", "", "0", "-2", "1_0", "\u0663", "+4", " 4", "4,,8", ",4", "4,"]
    )
    def test_bad_sizes_exit_2(self, tmp_path, sizes, capsys):
        rc = main(
            ["bench", "--sizes", sizes, "--backend", "axis", "--mode", "seq",
             "--seed", "1", "--trials", "1", "--csv", str(tmp_path / "x.csv")]
        )
        assert rc == 2

    # int() and float() read other scripts' digits and `_` separators:
    # "\u0663" is ARABIC-INDIC DIGIT THREE, "\u0661" ONE, "\u0660.\u0665" 0.5.
    @pytest.mark.parametrize(
        "option,value",
        [("--seed", "\u0663"), ("--seed", "1_0"), ("--trials", "\u0661"),
         ("--density", "\u0660.\u0665")],
    )
    def test_lenient_number_forms_exit_2(self, tmp_path, option, value, capsys):
        path = tmp_path / "x.csv"
        values = {"--seed": "1", "--trials": "1", "--density": "0.5", option: value}
        rc = main(
            ["bench", "--sizes", "2", "--backend", "axis", "--mode", "seq", "--csv", str(path),
             *(arg for item in values.items() for arg in item)]
        )
        assert rc == 2
        assert f"invalid {option} value" in capsys.readouterr().err
        assert not path.exists()

    def test_bad_density_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        rc = main(
            ["bench", "--sizes", "2", "--backend", "axis", "--mode", "seq",
             "--seed", "1", "--trials", "1", "--csv", str(path),
             "--density", "1.5"]
        )
        assert rc == 2
        assert "density" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bad_trials_exit_2(self, tmp_path, trials, capsys):
        path = tmp_path / "x.csv"
        rc = main(
            ["bench", "--sizes", "2", "--backend", "axis", "--mode", "seq",
             "--seed", "1", "--trials", trials, "--csv", str(path)]
        )
        assert rc == 2
        assert "error: --trials" in capsys.readouterr().err
        assert not path.exists()

    def test_consecutive_calls_share_no_option_state(self, tmp_path, capsys):
        # main parses with one parser built at import, so each call's
        # options must come from its own arguments alone.
        self.run(tmp_path, "timed.csv", extra=("--timing",))
        with open(self.run(tmp_path, "plain.csv"), newline="", encoding="utf-8") as f:
            assert {row["usec"] for row in csv.DictReader(f)} == {"0"}
        rc = main(
            ["bench", "--sizes", "2", "--backend", "axis", "--mode", "seq",
             "--seed", "7", "--trials", "0", "--csv", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert "error: --trials" in capsys.readouterr().err
        assert self.run(tmp_path, "after.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestSelftest:
    def test_clean_build_passes(self):
        out = io.StringIO()
        assert run_selftest(out=out) == 0
        text = out.getvalue()
        assert "FAIL" not in text
        assert text.count(": ok") >= 5

    def test_cli_entry_point(self, capsys):
        assert main(["selftest"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_catches_inverted_blocking(self):
        out = io.StringIO()
        rc = run_selftest(
            out=out,
            machine_factories={
                "axis": InvertedLadderMachine,
                "wall": WallLightMachine,
            },
        )
        assert rc == 1
        text = out.getvalue()
        assert "FAIL" in text
        assert "A:" in text  # counterexample is printed

    def test_oracle_checks_alone_catch_inverted_blocking(self):
        # With no wall machine there is no agreement check: the reported
        # products must carry the inverted machine's sections to the oracle.
        out = io.StringIO()
        assert run_selftest(out=out, machine_factories={"axis": InvertedLadderMachine}) == 1
        assert "matvec disagrees with oracle" in out.getvalue()

    def test_matvec_counterexample_text(self):
        out = io.StringIO()
        assert run_selftest(out=out, machine_factories={"axis": InvertedLadderMachine}) == 1
        assert out.getvalue() == (
            "selftest: FAIL [axis]: matvec disagrees with oracle\n"
            "A:\n0\n"
            "V:       0\n"
            "machine: 1\n"
            "oracle:  0\n"
        )

    def test_matmul_counterexample_text(self):
        out = io.StringIO()
        assert run_selftest(out=out, machine_factories={"axis": StuckColumnMachine}) == 1
        assert out.getvalue() == (
            "selftest: matvec vs oracle, exhaustive n<=3 [axis]: ok\n"
            "selftest: FAIL [axis]: matmul disagrees with oracle\n"
            "A:\n00\n10\n"
            "B:\n10\n10\n"
            "machine:\n00\n11\n"
            "oracle:\n00\n10\n"
        )

    def test_catches_lying_stroke_report(self):
        # Results stay correct, so only the cross-backend agreement check
        # can notice this fault; proves that check pulls its weight.
        out = io.StringIO()
        rc = run_selftest(
            out=out,
            machine_factories={
                "axis": LyingLadderMachine,
                "wall": WallLightMachine,
            },
        )
        assert rc == 1
        assert "ladder stroke and light observation disagree" in out.getvalue()

    def test_single_backend_skips_agreement(self):
        out = io.StringIO()
        assert run_selftest(out=out, machine_factories={"axis": AxisLadderMachine}) == 0
        assert "agreement" not in out.getvalue()
