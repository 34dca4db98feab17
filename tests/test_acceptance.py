"""Acceptance gate: every headline criterion at its pinned tolerance.

Each test prints the one-line pass/fail verdict (and the per-check details
on failure) and asserts the criterion passed. Run with -s to see the lines.
"""

import threading

from cellab import acceptance
from cellab.acceptance import run_suite
from cellab.config import RunConfig

CFG = RunConfig()  # grid 2049, fixed seed


def _run(name):
    result = run_suite([name], CFG)[0]
    print()
    print(result.summary_line())
    if not result.passed:
        for line in result.details:
            print(line)
    assert result.passed, f"criterion {name} failed:\n" + "\n".join(result.details)
    return result


def test_finite_matrix_equality():
    # exact 2 pi (k-1)/k witness bounds; constructive paths within 1e-2 on
    # the witness and 20 seeded determinant-1 fields per k, at grid 2049
    result = _run("finite-cel")
    assert result.elapsed < 60.0


def test_chi_witness_bound():
    # 2 pi (1 - 1/L) exactly, zero tolerance, L up to 10^4
    _run("chi-witness")


def test_tower_regression():
    # stage 2 frozen values, big-integer invariants through stage 4,
    # boundary divisibility at every composed level, empty dichotomy
    result = _run("tower")
    assert result.elapsed < 30.0


def test_jiangsu_witness_floor():
    # exact case-formula floors at n in {2,3,5}, monotone, block-size
    # independent; stage limits increase toward 2 pi
    _run("jiangsu-floor")


def test_oracle_consistency_dense_scale():
    # first-stage witness dense in dim 6 at grid 2049: lower bound within
    # [4pi/3 - 1e-4, best upper], frame ordering respected
    _run("oracle-dense")


def test_run_suite_sequential_in_calling_thread(monkeypatch):
    # criteria run in the given order on the caller's thread whatever
    # cfg.jobs holds; each result is named by its key and timed
    calls = []

    def stub(label):
        def criterion(cfg, res):
            calls.append((label, threading.get_ident()))
            res.record(label, True)
        return criterion

    monkeypatch.setattr(acceptance, "CRITERIA",
                        {"first": stub("first"), "second": stub("second")})
    results = run_suite(["second", "first"], RunConfig().replace(jobs=2))
    me = threading.get_ident()
    assert calls == [("second", me), ("first", me)]
    assert [r.name for r in results] == ["second", "first"]
    assert all(r.passed and r.elapsed > 0 for r in results)
