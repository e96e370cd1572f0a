"""CLI contract: exit codes, formats, byte-determinism, worker pool."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import dedsums
from dedsums.sums import SumRequest

# The directory that holds the imported package: the child process runs the
# same sources, however this one found them (pytest's pythonpath, an install).
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(dedsums.__file__)))


def run_python(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args, env_extra=None):
    return run_python("-m", "dedsums", *args, env_extra=env_extra)


class TestSumCommand:
    def test_classical(self):
        res = run_cli("sum", "classical", "-a", "2", "-b", "3")
        assert res.returncode == 0
        assert res.stdout == "-1/18\n"

    def test_constant_factors(self):
        res = run_cli("sum", "hwz", "-m", "0", "-n", "0", "-a", "1", "-b", "1",
                      "-c", "4", "-x", "0", "-y", "0", "-z", "0")
        assert res.returncode == 0
        assert res.stdout == "4\n"

    def test_zero_modulus_names_precondition(self):
        res = run_cli("sum", "classical", "-a", "1", "-b", "0")
        assert res.returncode == 2
        assert "modulus b must be nonzero" in res.stderr

    def test_negative_rational_shift_value(self):
        res = run_cli("sum", "rademacher", "-a", "1", "-b", "-2", "-x", "0",
                      "-y", "1/2")
        assert res.returncode == 0
        assert res.stdout == "1/8\n"

    def test_json_format_carries_canonical_request(self):
        res = run_cli("sum", "carlitz", "-n", "2", "-a", "1", "-b", "2",
                      "-x", "-7/3", "-y", "1/2", "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["request"] == {"family": "carlitz", "n": 2, "a": 1, "b": 2,
                                   "x": "-7/3", "y": "1/2"}
        assert SumRequest.from_json_dict(data["request"]).evaluate() == \
            Fraction(data["value"])

    def test_decimal_input_rejected(self):
        res = run_cli("sum", "rademacher", "-a", "1", "-b", "2", "-x", "0.5",
                      "-y", "0")
        assert res.returncode == 2

    def test_unknown_family(self):
        res = run_cli("sum", "nope", "-a", "1", "-b", "2")
        assert res.returncode == 2


class TestVerifyCommand:
    def test_pass_exit_zero(self):
        res = run_cli("verify", "dedekind", "-a", "2", "-b", "3")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["pass"] is True
        assert data["lhs"] == "-1/18"
        assert list(data) == ["identity", "params", "lhs", "rhs", "residual", "pass"]

    def test_validation_exit_two(self):
        res = run_cli("verify", "apostol", "-n", "2", "-a", "2", "-b", "3")
        assert res.returncode == 2
        data = json.loads(res.stdout)
        assert data["error"] == "n odd"

    def test_negative_modulus_and_shift_literals(self):
        res = run_cli("verify", "thm31", "-m", "2", "-n", "3", "-a", "2",
                      "-b", "-3", "-x", "1/3", "-y", "1/5", "-z", "1/7")
        assert res.returncode == 0
        assert json.loads(res.stdout)["pass"] is True
        res = run_cli("verify", "thm31", "-m", "1", "-n", "1", "-a", "-2",
                      "-b", "3", "-x", "-1/3", "-y", "-7/3", "-z", "0")
        assert res.returncode == 0

    def test_dieter_flag(self):
        res = run_cli("verify", "rademacher3", "-a", "2", "-b", "3", "-c", "5",
                      "--dieter")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["params"]["dieter"] is True

    def test_plain_and_csv_formats(self):
        res = run_cli("verify", "berndt", "-a", "2", "-b", "3", "-c", "5",
                      "-x", "0", "-y", "0", "-z", "0", "--format", "plain")
        assert res.returncode == 0
        assert res.stdout.startswith("PASS berndt a=2 b=3 c=5")
        assert "counter=" in res.stdout
        res = run_cli("verify", "dedekind", "-a", "2", "-b", "3", "--format", "csv")
        lines = res.stdout.splitlines()
        assert lines[0] == "identity,a,b,lhs,rhs,residual,pass,counter"
        assert lines[1] == "dedekind,2,3,-1/18,-1/18,0,true,"

    def test_missing_flag_usage_error(self):
        res = run_cli("verify", "dedekind", "-a", "2")
        assert res.returncode == 2


class TestSweepCommand:
    def test_grid_all_pass(self):
        res = run_cli("sweep", "dedekind", "-a", "1..5", "-b", "1,2,3",
                      "--format", "plain")
        # the grid includes non-coprime combos, reported invalid -> exit 1
        assert res.returncode == 1
        assert "invalid=" in res.stdout.splitlines()[-1]

    def test_grid_coprime_only_passes(self):
        res = run_cli("sweep", "cor45", "-m", "1..2", "-n", "1..2",
                      "-a", "1..2", "-b", "1..2", "-c", "1..2")
        assert res.returncode == 0
        last = json.loads(res.stdout.splitlines()[-1])
        assert last == {"cases": 32, "passes": 32, "failures": 0, "invalid": 0}

    def test_lexicographic_order(self):
        res = run_cli("sweep", "dedekind", "-a", "1..2", "-b", "1..2",
                      "--format", "plain")
        lines = res.stdout.splitlines()
        assert lines[0].split()[1:4] == ["dedekind", "a=1", "b=1"]
        assert lines[1].split()[1:4] == ["dedekind", "a=1", "b=2"]
        assert lines[2].split()[1:4] == ["dedekind", "a=2", "b=1"]

    def test_seeded_random_deterministic(self):
        args = ("sweep", "carlitz", "--random", "40", "--seed", "97")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_worker_pool_identical_output(self):
        args = ("sweep", "thm31", "-m", "1..2", "-n", "1..2", "-a", "1..2",
                "-b", "1..2", "-x", "0,1/2", "-y", "0", "-z", "1/3")
        serial = run_cli(*args, env_extra={"DEDSUMS_WORKERS": "1"})
        parallel = run_cli(*args, env_extra={"DEDSUMS_WORKERS": "2"})
        assert serial.returncode == parallel.returncode == 0
        assert serial.stdout == parallel.stdout

    def test_partial_grid_is_usage_error(self):
        res = run_cli("sweep", "dedekind", "-a", "1..3")
        assert res.returncode == 2
        assert "missing parameter" in res.stderr

    def test_no_cases_is_usage_error(self):
        res = run_cli("sweep", "dedekind")
        assert res.returncode == 2

    def test_csv_format(self):
        res = run_cli("sweep", "dedekind", "-a", "2..3", "-b", "5,7",
                      "--format", "csv")
        lines = res.stdout.splitlines()
        assert lines[0] == "identity,a,b,lhs,rhs,residual,pass,counter"
        assert len(lines) == 6 and lines[-1].startswith("# cases=4")

    def test_negative_range_syntax(self):
        res = run_cli("sweep", "thm31", "-m", "1", "-n", "1", "-a", "-2..-1,1..2",
                      "-b", "1", "-x", "0,-1/3", "-y", "0", "-z", "0")
        assert res.returncode == 0
        last = json.loads(res.stdout.splitlines()[-1])
        assert last["cases"] == 8 and last["passes"] == 8


class TestAnalyticCommand:
    def test_zeta_even(self):
        res = run_cli("analytic", "zeta-even", "-j", "2", "-K", "2000")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["pass"] is True and data["target"] == "zeta_even"

    def test_lemma24(self):
        res = run_cli("analytic", "lemma24", "-j", "2", "-b", "3", "-r", "1",
                      "-K", "10000")
        assert res.returncode == 0

    def test_fourier(self):
        res = run_cli("analytic", "fourier", "-n", "2", "-x", "1/4", "-K", "1000")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["abs_error"] <= 1e-5

    def test_lemma27_plain(self):
        res = run_cli("analytic", "lemma27", "-j", "1", "-b", "2", "-r", "1",
                      "-x", "1/3", "-K", "5000", "--format", "plain")
        assert res.returncode == 0
        assert res.stdout.startswith("PASS lemma27")

    def test_domain_gate_exit_two(self):
        res = run_cli("analytic", "fourier", "-n", "1", "-x", "1/3", "-K", "100")
        assert res.returncode == 2

    def test_order_beyond_double_precision_exits_two(self):
        res = run_cli("analytic", "zeta-even", "-j", "200", "-K", "10")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: order j=200 is beyond double precision\n"

    def test_byte_determinism(self):
        args = ("analytic", "lemma27", "-j", "2", "-b", "3", "-r", "1",
                "-x", "1/5", "-K", "3000")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_split_series_prints_the_bytes_of_the_unsplit_one(self, fmt, monkeypatch, capsys):
        # At these K the series is split between the process and a forked
        # child whenever two CPUs are usable; the bytes must not change.
        from dedsums import analytic, cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        argvs = [["analytic", "lemma27", "-j", "2", "-b", "5", "-r", "-3", "-x", "2/7",
                  "-K", "250000"], ["analytic", "zeta-even", "-j", "1", "-K", "300000"]]

        def run():
            out = []
            for argv in argvs:
                assert cli.main([*argv, "--format", fmt]) == 0
                out.append(capsys.readouterr().out)
            return out

        split = run()
        assert len(forks) == 3   # the two parts of lemma27, and zeta_even
        monkeypatch.setattr(analytic, "_MIN_SPLIT", 1 << 62)
        assert run() == split
        assert len(forks) == 3


class TestWorkerCount:
    """A worker count that is not an integer >= 1 is a usage error of sweep."""

    SWEEP = ["sweep", "dedekind", "-a", "2", "-b", "3"]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_option_below_one(self, count, monkeypatch, capsys):
        from dedsums import cli
        monkeypatch.delenv("DEDSUMS_WORKERS", raising=False)
        assert cli.main(self.SWEEP + ["--workers", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --workers must be an integer >= 1, got '{count}'" in captured.err

    def test_non_integer_environment(self, monkeypatch, capsys):
        from dedsums import cli
        monkeypatch.setenv("DEDSUMS_WORKERS", "abc")
        assert cli.main(self.SWEEP) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: DEDSUMS_WORKERS must be an integer >= 1, got 'abc'" in captured.err
        # The variable is read by sweep only, and --workers overrides it.
        assert cli.main(["verify", "dedekind", "-a", "2", "-b", "3"]) == 0
        assert cli.main(self.SWEEP + ["--workers", "1"]) == 0


class TestStrictIntegers:
    """Integer values and range bounds are ASCII ``-?[0-9]+``, as a rational's numerator."""

    @pytest.mark.parametrize("argv", [
        ["verify", "dedekind", "-a", "\u0663", "-b", "2", "--format", "plain"],
        ["sweep", "dedekind", "-a", "3_0", "-b", "7"],
        ["sweep", "dedekind", "-a", "3", "-b", " +7"],
        ["sweep", "dedekind", "-a", "1..\uff13", "-b", "7"],
        ["sweep", "dedekind", "-a", "1", "-b", "2", "--seed", "+1"],
    ])
    def test_lenient_integer_text_is_a_usage_error(self, argv, capsys):
        from dedsums import cli
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid int value" in captured.err or "invalid _int_range value" in captured.err


class TestSweepSpec:
    def test_grid_then_random_ordering(self):
        from dedsums.cli import SweepSpec
        spec = SweepSpec("dedekind", grids={"a": [1, 2], "b": [1, 3]},
                         random_count=3, seed=11)
        cases = spec.cases()
        assert cases[:4] == [{"a": 1, "b": 1}, {"a": 1, "b": 3},
                             {"a": 2, "b": 1}, {"a": 2, "b": 3}]
        assert len(cases) == 7
        assert cases == spec.cases()  # seed pins the random tail

    def test_incomplete_grid_rejected(self):
        from dedsums.cli import SweepSpec
        with pytest.raises(ValueError):
            SweepSpec("dedekind", grids={"a": [1]}).cases()
        with pytest.raises(ValueError):
            SweepSpec("dedekind").cases()

    def test_flags_propagate(self):
        from dedsums.cli import SweepSpec
        spec = SweepSpec("rademacher3", grids={"a": [1], "b": [2], "c": [3]},
                         flags=("dieter",))
        assert spec.cases() == [{"a": 1, "b": 2, "c": 3, "dieter": True}]


class TestExitOnFailure:
    """The exit-1 branch, unreachable with true laws, via forced failures."""

    def test_verify_nonzero_residual_exits_one(self, monkeypatch, capsys):
        from dedsums import cli
        from dedsums.reciprocity import IdentityCase, IdentityReport

        def fake_run_case(identity, params):
            case = IdentityCase(identity, (("a", params["a"]), ("b", params["b"])))
            return IdentityReport(case, Fraction(1), Fraction(0), Fraction(1), False)

        monkeypatch.setattr(cli, "run_case", fake_run_case)
        rc = cli.main(["verify", "dedekind", "-a", "2", "-b", "3"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_analytic_tolerance_failure_exits_one(self, monkeypatch, capsys):
        from dedsums import cli
        from dedsums.analytic import ANALYTIC_TARGETS, TruncationReport

        def fake_check(j, K):
            return TruncationReport("zeta_even", (("j", j),), K,
                                    1.0, 2.0, 1.0, 0.5, False)

        monkeypatch.setitem(ANALYTIC_TARGETS, "zeta-even",
                            ANALYTIC_TARGETS["zeta-even"]._replace(fn=fake_check))
        rc = cli.main(["analytic", "zeta-even", "-j", "1", "-K", "10"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["pass"] is False


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_identity(self):
        assert run_cli("verify", "nope", "-a", "1").returncode == 2


class TestOneParserPerProcess:
    """main reuses one parser; each call prints what a fresh process prints."""

    def test_built_once(self):
        from dedsums import cli
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_matches_a_fresh_process(self, monkeypatch):
        from dedsums import cli
        monkeypatch.delenv("DEDSUMS_WORKERS", raising=False)
        monkeypatch.setattr(cli, "_PARSER", None)  # built by the first call below
        verify = ["verify", "dedekind", "-a", "2"]
        sequence = [("80", verify),  # -b missing: a usage error, exit 2
                    ("80", verify + ["-b", "3", "--format", "csv"]),
                    ("80", verify + ["-b", "3"]),  # JSON, the default, after csv
                    ("40", ["sweep", "thm31", "--help"]),
                    ("200", ["sweep", "thm31", "--help"])]
        for columns, argv in sequence:
            monkeypatch.setenv("COLUMNS", columns)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            fresh = run_cli(*argv)
            assert (out.getvalue(), err.getvalue(), code) == \
                (fresh.stdout, fresh.stderr, fresh.returncode), (columns, argv)
        assert code == 0 and fresh.stdout.startswith("usage: dedsums sweep thm31")


def test_import_leaves_the_process_pool_out():
    # Only a sweep with --workers > 1 imports the pool.
    res = run_python("-c", "import sys, dedsums.cli; print(sorted(m for m in "
                     "('concurrent.futures.process', 'multiprocessing') if m in sys.modules))")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
