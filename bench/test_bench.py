"""Tests of the benchmark itself: each output check rejects a wrong output,
small versions of the workloads pass their checks, and tracing leaves the
checked outputs byte-identical.

    python3 -m pytest bench
"""

import copy
import csv
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from speed import SpeedProbe, kernel
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# -- law_school_experiment --------------------------------------------------

def _law_report():
    def entry(passed, aggregate, rmse):
        return {"metric": "rmse", "value": rmse,
                "audits": [{"criterion": "cf", "passed": passed, "aggregate": aggregate},
                           {"criterion": "cf", "passed": True, "aggregate": 0.0}]}
    return {"split": {"n_train": 4000, "n_test": 1000},
            "recipes": {"full": entry(False, 0.9, 1.05), "unaware": entry(False, 0.6, 1.08),
                        "fair_k": entry(True, 0.0, 1.2), "fair_add": entry(True, 0.0, 1.21)}}


def test_law_check_accepts_a_right_report():
    assert workloads.check_law_school(_law_report(), 1.0, 1.5) == []
    report = _law_report()  # fair_add's verdict alone is not checked
    report["recipes"]["fair_add"]["audits"][0].update(passed=False, aggregate=0.09)
    assert workloads.check_law_school(report, 1.0, 1.5) == []


@pytest.mark.parametrize("recipe,path,value", [
    ("fair_k", ("audits", 0, "passed"), False),     # fair recipe fails the race audit
    ("full", ("audits", 0, "passed"), True),        # unfair recipe passes it
    ("unaware", ("audits", 0, "passed"), True),
    ("fair_add", ("audits", 0, "aggregate"), 0.6),  # no fairer than unaware
    ("full", ("value",), 0.8),                      # below the outcome noise
    ("fair_k", ("value",), 1.8),                    # worse than a constant
    ("unaware", ("metric",), "log_loss"),
])
def test_law_check_rejects_a_wrong_report(recipe, path, value):
    report = _law_report()
    target = report["recipes"][recipe]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert workloads.check_law_school(report, 1.0, 1.5)


def test_law_check_rejects_missing_recipes_and_audits():
    report = _law_report()
    del report["recipes"]["fair_add"]
    assert workloads.check_law_school(report, 1.0, 1.5)
    report = _law_report()
    report["recipes"]["full"]["audits"].pop()
    assert workloads.check_law_school(report, 1.0, 1.5)


# -- loan_counterfactual ----------------------------------------------------

def test_loan_enumeration_is_one_third():
    bench = workloads.LoanCounterfactual(0, BENCH, draws=10, burn_in=1)
    assert abs(bench.expected - 1.0 / 3.0) <= 1e-15


def test_loan_check_accepts_and_rejects():
    ok = {"method": "enumeration", "probability": 1.0 / 3.0}
    assert workloads.check_loan(0.34, 10_000, ok, 1.0 / 3.0) == []
    assert workloads.check_loan(0.37, 10_000, ok, 1.0 / 3.0)     # flip rate off
    assert workloads.check_loan(0.5, 10_000, ok, 1.0 / 3.0)
    assert workloads.check_loan(0.34, 10_000, {**ok, "probability": 1.0 / 3.0 + 1e-9},
                                1.0 / 3.0)
    assert workloads.check_loan(0.34, 10_000, {**ok, "method": "abduction"}, 1.0 / 3.0)
    assert workloads.check_loan(0.34, 10_000, {}, 1.0 / 3.0)


# -- red_car_cli --------------------------------------------------------------

def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("A", "U", "X", "Y"))
        writer.writerows(rows)


def test_red_car_rows_check(tmp_path):
    good = [(1.0, 0.25, 1.25, 0.25), (-1.0, 0.5, -0.5, 0.5)]
    path = tmp_path / "data.csv"
    _write_rows(path, good)
    assert workloads.check_red_car_rows(path, 2) == []
    assert workloads.check_red_car_rows(path, 3)                       # row count
    _write_rows(path, good + [(1.0, 0.5, 1.25, 0.5)])                  # X != A + U
    assert workloads.check_red_car_rows(path, 3)
    _write_rows(path, good + [(1.0, 0.5, 1.5, 0.75)])                  # Y != U
    assert workloads.check_red_car_rows(path, 3)


def _fits():
    full = {"labels": ["intercept", "X", "A"], "weights": [0.0, 1.0, -1.0]}
    unaware = {"labels": ["intercept", "X"], "weights": [0.0, 0.501]}
    audit_full = {"passed": True, "detail": {"per_record": []}}
    audit_unaware = {"passed": False, "detail": {"per_record": [
        {"record": 3, "mean_shift": 1.002}, {"record": 9, "mean_shift": 1.002}]}}
    return full, unaware, audit_full, audit_unaware


def test_red_car_fits_check_accepts_right_fits():
    assert workloads.check_red_car_fits(*_fits()) == []


@pytest.mark.parametrize("which,change", [
    (0, lambda d: d["weights"].__setitem__(1, 1.00001)),      # full X weight
    (0, lambda d: d["weights"].__setitem__(2, -0.99)),        # full A weight
    (1, lambda d: d["weights"].__setitem__(1, 0.52)),         # unaware slope
    (2, lambda d: d.__setitem__("passed", False)),            # full audit verdict
    (3, lambda d: d.__setitem__("passed", True)),             # unaware audit verdict
    (3, lambda d: d["detail"]["per_record"][1].__setitem__("mean_shift", 1.0021)),
    (3, lambda d: d["detail"].__setitem__("per_record", [])),
])
def test_red_car_fits_check_rejects_wrong_fits(which, change):
    fits = copy.deepcopy(_fits())
    change(fits[which])
    assert workloads.check_red_car_fits(*fits)


# -- small workloads, traced and untraced -------------------------------------

SMALL = {
    "law_school_experiment": dict(n=400, mcmc={"chains": 2, "burn_in": 20,
                                               "kept": 10, "thin": 1}),
    "loan_counterfactual": dict(draws=600, burn_in=50),
    "red_car_cli": dict(n=20_000),
}
# per-layer counts that follow from the small workloads' make-up
EXPECTED = {
    "law_school_experiment": {
        "estimators.fit_level2_latent.em_iterations": 50,
        # fair_k's fit and predict, then 4 recipes x 2 audits on 2 distinct posteriors
        "counterfactual.posterior_draw_matrix.calls": 10,
        "counterfactual.posterior_draw_matrix.repeat_calls": 6,
        "counterfactual.posterior_draw_matrix.route_exact": 0,
        "metrics.cf_fairness_test.calls": 8,
    },
    "loan_counterfactual": {
        "counterfactual.abduct_records.mh_steps": 2 * (50 + 300 * 2),
        "counterfactual.abduct_records.records": 1,
        "scenarios.generate.s": None,  # in the set-up, still traced
    },
    "red_car_cli": {
        "dataset.to_csv.rows": 20_000,
        "dataset.from_csv.rows": 4 * 20_000,
        "counterfactual.posterior_draw_matrix.route_exact": 2,
        "counterfactual.posterior_draw_matrix.route_mcmc": 0,
        "counterfactual.abduct_records.calls": 0,
    },
}


def _run_round(workload):
    outputs = {name: op() for name, op in workload.operations()}
    return workload.check(outputs), workload.digest(outputs)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_keeps_checked_outputs_identical(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    errors, plain = _run_round(cls(3, tmp_path / "plain", **SMALL[name]))
    if name != "law_school_experiment":  # its audit verdicts need the full size
        assert errors == []
    tracer = Tracer()
    tracer.install()
    try:
        workload = cls(3, tmp_path / "traced", **SMALL[name])
        setup_end = tracer.mark()
        tracer.new_round()
        traced_errors, traced = _run_round(workload)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert traced_errors == errors
    metrics = tracer.per_layer(setup_end, 1)
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    for key, want in EXPECTED[name].items():
        assert metrics[key] > 0 if want is None else metrics[key] == want, key


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "loan_counterfactual",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_samples_while_work_runs():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval=0.01)
    probe.start()
    try:
        lo = probe.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            kernel()
        hi = probe.mark()
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert hi[0] - lo[0] >= 5
    speed, wall, cpu = probe.window(lo, hi)
    assert speed > 0 and 0 < wall < 0.3 and 0 < cpu < 0.3
    # a window too short to hold a sample times the kernel on the spot
    assert probe.window(hi, hi)[0] > 0
