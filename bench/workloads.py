"""The benchmark's three workloads: inputs, timed operations and output checks.

Each workload is built from a seed and a scratch directory (the set-up), then
runs rounds of the same operations. A round returns the outputs that its
checks read. Every check compares against a computation made here, apart from
the program, or against a property the method must have; none compares against
a stored copy of earlier output. The check functions take plain values, so the
benchmark's tests can hand them deliberately wrong outputs.

Calls into cfair go through module attributes looked up at call time
(`cfair.counterfactual_sample`, `cli.main`), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cfair  # noqa: E402
import cfair.cli as cli  # noqa: E402

if Path(cfair.__file__).resolve().parent != ROOT / "src" / "cfair":
    raise ImportError(f"cfair was imported from {cfair.__file__}, "
                      f"not from {ROOT / 'src'}")


class OperationFailed(Exception):
    """A `cfair` command exited with a non-zero code."""


def _cli(argv: list[str]) -> str:
    """Run one `cfair` command in-process; returns what it printed."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"cfair {argv[0]} exited with {code}")
    return out.getvalue()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _files_digest(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return _digest(*(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes()
                     for p in files))


# -- law_school_experiment ----------------------------------------------------

LAW_UNFAIR = ("full", "unaware")


def check_law_school(report: dict, noise_std: float, outcome_std: float) -> list[str]:
    """Race-audit verdicts and test RMSE bounds of one experiment report.

    The race audit must fail for full and unaware and pass for fair_k, whose
    only input is the abducted latent. fair_add is held to a weaker property:
    its race aggregate stays below those of both unfair recipes. Its additive
    correction is not exact for the Poisson LSAT, and its verdict fails on
    some seeds.

    The RMSE of any recipe cannot fall below the outcome's own noise std (a
    predictor that knew the latent exactly would reach it) and should not
    exceed the outcome's std (a constant reaches it). Both bounds are widened
    by four standard errors of an RMSE estimated on the test rows.
    """
    errors = []
    recipes = report.get("recipes", {})
    if sorted(recipes) != sorted(LAW_UNFAIR + ("fair_k", "fair_add")):
        return [f"report holds recipes {sorted(recipes)}"]
    if any(len(entry["audits"]) != 2 for entry in recipes.values()):
        return ["every recipe needs its race and sex audits"]
    race = {name: entry["audits"][0] for name, entry in recipes.items()}
    for name, want in (("full", False), ("unaware", False), ("fair_k", True)):
        if race[name]["passed"] is not want:
            errors.append(f"{name}: race audit passed={race[name]['passed']}, expected {want}")
    unfair = min(float(race[name]["aggregate"]) for name in LAW_UNFAIR)
    if not float(race["fair_add"]["aggregate"]) < unfair:
        errors.append(f"fair_add: race aggregate {race['fair_add']['aggregate']} "
                      f"not below the unfair recipes' {unfair}")
    n_test = int(report["split"]["n_test"])
    slack = 4.0 / math.sqrt(2.0 * n_test)
    low, high = noise_std * (1.0 - slack), outcome_std * (1.0 + slack)
    for name, entry in sorted(recipes.items()):
        rmse = float(entry["value"])
        if entry["metric"] != "rmse" or not low <= rmse <= high:
            errors.append(f"{name}: test {entry['metric']} {rmse:.4f} outside "
                          f"[{low:.4f}, {high:.4f}]")
    return errors


class LawSchoolExperiment:
    """`cfair experiment` on law_school: four recipes, race and sex cf audits."""

    def __init__(self, seed: int, workdir: Path, n: int = 5000,
                 mcmc: dict | None = None):
        self.seed = seed
        self.records = n
        self.config = {
            "scenario": {"kind": "law_school", "n": n, "seed": seed},
            "outcome": "FYA",
            "recipes": [*LAW_UNFAIR, "fair_k", "fair_add"],
            "mcmc": mcmc or {"chains": 2, "burn_in": 200, "kept": 40, "thin": 2},
            "audits": [{"criterion": "cf", "a": {"R": 1}, "a_prime": {"R": 0}},
                       {"criterion": "cf", "a": {"S": 1}, "a_prime": {"S": 0}}],
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "experiment.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.out = workdir / "run"
        # the generating model and its data, for the RMSE bounds
        model, data = cfair.generate(cfair.ScenarioParams(kind="law_school", n=n, seed=seed))
        self.noise_std = float(model.equation_map["FYA"].family.noise_std)
        self.outcome_std = float(np.std(data.column("FYA").astype(np.float64)))

    def operations(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return [("experiment", lambda: _cli(
            ["experiment", str(self.config_path), "--out", str(self.out),
             "--seed", str(self.seed)]))]

    def check(self, outputs: dict) -> list[str]:
        report = json.loads((self.out / "report.json").read_text())
        return check_law_school(report, self.noise_std, self.outcome_std)

    def digest(self, outputs: dict) -> str:
        return _files_digest(self.out)


# -- loan_counterfactual -------------------------------------------------------

LOAN_RECORD = {"A": 1, "Employed": 0}
LOAN_ACTION = {"A": 0}


def enumerate_loan_flip(model) -> float:
    """P(Employed changes under do(A=0) | A=1, Employed=0), by enumeration.

    Weighs every (A, P, Q) state by its priors, keeps those consistent with
    the record, and counts the states whose Employed differs once A is set
    to 0. Built from the model's table and priors, not from cfair's routines.
    """
    table = dict(model.equation_map["Employed"].family.entries)
    priors = model.prior_map
    weight = {name: dict(zip(priors[name].values, priors[name].probs))
              for name in ("A", "P", "Q")}
    mass = flips = 0.0
    for a, p, q in product((0, 1), repeat=3):
        w = weight["A"][a] * weight["P"][p] * weight["Q"][q]
        if a == LOAN_RECORD["A"] and table[(a, p, q)] == LOAN_RECORD["Employed"]:
            mass += w
            flips += w * (table[(LOAN_ACTION["A"], p, q)] != LOAN_RECORD["Employed"])
    return flips / mass


def check_loan(flip_rate: float, draws: int, sufficiency: dict,
               expected: float) -> list[str]:
    """Twin-network flip rate and enumerated sufficiency against `expected`.

    The flip rate is a mean of `draws` posterior indicators, so it is held to
    five binomial standard errors of that mean; the enumeration route of
    prob_sufficiency is exact and must agree to rounding.
    """
    errors = []
    tol = 5.0 * math.sqrt(expected * (1.0 - expected) / draws)
    if not abs(flip_rate - expected) <= tol:
        errors.append(f"flip rate {flip_rate:.4f} differs from {expected:.4f} by more than {tol:.4f}")
    if sufficiency.get("method") != "enumeration":
        errors.append(f"prob_sufficiency took the {sufficiency.get('method')} route")
    if not abs(float(sufficiency.get("probability", math.nan)) - expected) <= 1e-12:
        errors.append(f"prob_sufficiency {sufficiency.get('probability')} != {expected}")
    return errors


class LoanCounterfactual:
    """One loan record {A=1, Employed=0} under do(A=0): twin draws and sufficiency."""

    def __init__(self, seed: int, workdir: Path, draws: int = 10_000,
                 burn_in: int = 500):
        self.records = draws
        self.model, _ = cfair.generate(cfair.ScenarioParams(kind="loan", n=1, seed=seed))
        self.config = cfair.McmcConfig(chains=2, burn_in=burn_in, kept=draws // 2,
                                       thin=2, seed=seed)
        manifest = cfair.InputManifest(frozenset(), frozenset({"Employed"}), False,
                                       self.model.protected, frozenset({"Employed"}))
        self.reader = cfair.FairPredictor(
            manifest=manifest, head="linear", labels=("intercept", "Employed"),
            weights=np.array([0.0, 1.0]), encoders={},
            training={"outcome": "Y", "seed": seed, "draws_per_record": 1})
        self.expected = enumerate_loan_flip(self.model)

    def operations(self):
        return [
            ("counterfactual_sample", lambda: cfair.counterfactual_sample(
                self.model, LOAN_RECORD, LOAN_ACTION, self.records, self.config)),
            ("prob_sufficiency", lambda: cfair.prob_sufficiency(
                self.model, self.reader, LOAN_RECORD, 0.0, LOAN_ACTION)),
        ]

    def check(self, outputs: dict) -> list[str]:
        employed = outputs["counterfactual_sample"].column("Employed")
        rate = float((employed != LOAN_RECORD["Employed"]).mean())
        return check_loan(rate, len(employed), outputs["prob_sufficiency"], self.expected)

    def digest(self, outputs: dict) -> str:
        sample = outputs["counterfactual_sample"]
        return _digest(*(np.asarray(sample.column(c), dtype=np.float64).tobytes()
                         for c in sample.columns),
                       json.dumps(outputs["prob_sufficiency"], sort_keys=True).encode())


# -- red_car_cli ----------------------------------------------------------------

RED_CAR_UNAWARE_SLOPE = 0.5  # beta*v_u / (alpha^2 v_a + beta^2 v_u) at unit knobs


def check_red_car_rows(path: Path, n: int) -> list[str]:
    """Every row of the CSV satisfies X = A + U and Y = U (unit red_car knobs)."""
    errors = []
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ia, iu, ix, iy = (header.index(c) for c in ("A", "U", "X", "Y"))
        for row in reader:
            a, u, x, y = float(row[ia]), float(row[iu]), float(row[ix]), float(row[iy])
            if abs(x - (a + u)) > 1e-12 * (1.0 + abs(x)) or y != u:
                errors.append(f"row {rows}: A={a} U={u} X={x} Y={y}")
                break
            rows += 1
    if not errors and rows != n:
        errors.append(f"{rows} rows, expected {n}")
    return errors


def check_red_car_fits(full: dict, unaware: dict, audit_full: dict,
                       audit_unaware: dict) -> list[str]:
    """Fitted weights and audit verdicts against the red_car closed form.

    The full regression recovers U = X - A exactly; the unaware slope is the
    population value 0.5; under do(A: 1 -> -1) X drops by 2, so every audited
    record's mean score under the unaware fit shifts by twice its slope.
    """
    errors = []
    w_full = dict(zip(full["labels"], full["weights"]))
    if abs(w_full.get("X", math.inf) - 1.0) > 1e-6 or abs(w_full.get("A", math.inf) + 1.0) > 1e-6:
        errors.append(f"full weights X={w_full.get('X')} A={w_full.get('A')}, expected 1 and -1")
    slope = dict(zip(unaware["labels"], unaware["weights"])).get("X", math.inf)
    if abs(slope - RED_CAR_UNAWARE_SLOPE) > 0.01:
        errors.append(f"unaware slope {slope}, expected {RED_CAR_UNAWARE_SLOPE} within 0.01")
    if audit_full.get("passed") is not True:
        errors.append(f"full audit passed={audit_full.get('passed')}, expected True")
    if audit_unaware.get("passed") is not False:
        errors.append(f"unaware audit passed={audit_unaware.get('passed')}, expected False")
    per_record = audit_unaware.get("detail", {}).get("per_record", [])
    if not per_record:
        errors.append("unaware audit holds no per-record results")
    for rec in per_record:
        if abs(rec["mean_shift"] - 2.0 * slope) > 1e-9:
            errors.append(f"record {rec['record']}: mean_shift {rec['mean_shift']} "
                          f"!= 2 x slope {2.0 * slope}")
            break
    return errors


class RedCarCli:
    """`cfair scenario red_car`, fit full and unaware, cf-audit each, at n rows."""

    def __init__(self, seed: int, workdir: Path, n: int = 1_000_000):
        self.seed = seed
        self.records = n
        self.dir = workdir / "red_car"

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def operations(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        seed = ["--seed", str(self.seed)]
        model, data = self._path("model.json"), self._path("data.csv")
        ops = [("scenario", lambda: _cli(["scenario", "red_car", "--n", str(self.records),
                                          "--out", str(self.dir), *seed]))]
        for recipe in ("full", "unaware"):
            ops.append((f"fit_{recipe}", lambda recipe=recipe: _cli(
                ["fit", model, data, "--recipe", recipe,
                 "--out", self._path(f"{recipe}.json"), *seed])))
        for recipe in ("full", "unaware"):
            ops.append((f"audit_{recipe}", lambda recipe=recipe: _cli(
                ["audit", self._path(f"{recipe}.json"), model, data,
                 "--criterion", "cf", "--a", "A=1", "--a-prime", "A=-1",
                 "--out", self._path(f"audit_{recipe}"), *seed])))
        return ops

    def check(self, outputs: dict) -> list[str]:
        def load(name):
            return json.loads((self.dir / name).read_text())
        return (check_red_car_rows(self.dir / "data.csv", self.records)
                + check_red_car_fits(load("full.json"), load("unaware.json"),
                                     load("audit_full/report.json"),
                                     load("audit_unaware/report.json")))

    def digest(self, outputs: dict) -> str:
        return _files_digest(self.dir)


WORKLOADS = {
    "law_school_experiment": LawSchoolExperiment,
    "loan_counterfactual": LoanCounterfactual,
    "red_car_cli": RedCarCli,
}
