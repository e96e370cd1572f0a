"""The benchmark's reach into the package, run in-process.

``perfbench/run.py`` loads ``dedsums`` itself, clears its memos between
passes and reads their ``cache_info``; ``perfbench/tracing.py`` wraps the
sum families, the checkers, the CLI entry points and the analytic checks by
module attribute.  A renamed or removed name would make a benchmark run end in a traceback
instead of its result line, so these tests run the same code here.
"""

import contextlib
import importlib.util
import io
import os
from fractions import Fraction

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    run, tracing = _load("run"), _load("tracing")
    # run.py imports tracing into its namespace when started as a script.
    run.tracing = tracing
    return run, tracing, run.load()


THM41 = {"m": 2, "n": 3, "a": 2, "b": -3, "c": 5,
         "x": Fraction(1, 3), "y": Fraction(1, 2), "z": Fraction(-2, 7)}


def test_clear_caches_empties_the_memos(bench):
    run, _, dd = bench
    dd.reciprocity.run_case("thm41", THM41)
    run.clear_caches(dd)
    probes = run.cache_probes(dd)
    assert probes["memo"]().currsize == 0
    assert probes["inner"]().currsize == 0
    assert all(info().currsize == 0 for info in probes["families"])


def test_cache_probes_find_every_memo(bench):
    run, tracing, dd = bench
    probes = run.cache_probes(dd)
    assert probes["memo"] is not None
    assert probes["inner"] is not None
    assert len(probes["families"]) == len(tracing.FAMILIES)


def test_tracer_wraps_and_restores_the_package(bench):
    run, tracing, dd = bench
    modules = (dd.sums, dd.reciprocity, dd.cli, dd.analytic)
    before = [dict(vars(m)) for m in modules]
    specs = dict(dd.reciprocity.IDENTITIES)
    tracer = tracing.Tracer()
    tracer.install(dd)
    try:
        run.clear_caches(dd)
        report = dd.reciprocity.run_case("thm41", THM41)
        assert report.passed
        assert dd.sums.classical_s(3, 7) == Fraction(-1, 14)
    finally:
        tracer.uninstall()
        run.clear_caches(dd)
    names = {span[0] for span in tracer.spans}
    assert {"reciprocity.run_case", "reciprocity.thm41", "sums.hwz_s",
            "sums.count_ladder", "sums.classical_s"} <= names
    # One lhs sum, then m + 1 = 3 and n + 1 = 4 for the two sides of the rhs:
    # every family call of the checker passes through the traced name.
    assert sum(span[0] == "sums.hwz_s" for span in tracer.spans) == 8
    for module, attrs in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in attrs.items())
    assert dd.reciprocity.IDENTITIES == specs


def test_tracer_sees_every_layer_of_a_cli_sweep(bench):
    # cli-sweep's per-layer metrics come from these spans; a CLI that called
    # its parser, sweep command, enumerator or run_case other than by module
    # attribute would slip past the wrappers.
    run, tracing, dd = bench
    tracer = tracing.Tracer()
    tracer.install(dd)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = dd.cli.main(["sweep", "dedekind", "-a", "1..2", "-b", "3,5", "--workers", "1"])
    finally:
        tracer.uninstall()
        run.clear_caches(dd)
    assert rc == 0
    assert out.getvalue().splitlines()[-1] == \
        '{"cases": 4, "passes": 4, "failures": 0, "invalid": 0}'
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.build_parser", "cli.sweep", "cli.enumerate",
            "reciprocity.run_case", "reciprocity.dedekind"} <= names


def test_tracer_sees_one_span_per_analytic_check(bench):
    # analytic.terms_per_s divides the series terms by the time of these
    # spans; a check that called another by its public name would nest a
    # second span and count its time twice.
    run, tracing, dd = bench
    tracer = tracing.Tracer()
    tracer.install(dd)
    try:
        dd.analytic.zeta_even_check(1, 20)
        dd.analytic.fourier_partial(2, Fraction(1, 4), 20)
        dd.analytic.lemma24_check(2, 3, 1, 20)
        dd.analytic.lemma27_check(2, 3, 1, Fraction(1, 5), 20)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == [
        "analytic.zeta_even", "analytic.fourier", "analytic.lemma24", "analytic.lemma27"]
    assert all(span[3] == -1 for span in tracer.spans)
