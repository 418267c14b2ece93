"""Release gate: ten end-to-end checks, one summary line each.

Every check recomputes its expected values on the spot (closed forms, exhaustive
enumeration, or batch-means error bars) and records a PASS/FAIL verdict that the
terminal summary prints after the run, alongside the measured quantities and the
wall-clock time. Checks with a runtime budget fail when they exceed it.
"""

import functools
import json
import shutil
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from conftest import record_acceptance

from cfair import (
    CategoricalPrior,
    CausalModel,
    LinearGaussian,
    McmcConfig,
    NormalPrior,
    Role,
    ScenarioParams,
    StructuralEquation,
    Variable,
    abduct_exact,
    abduct_mcmc,
    ace,
    ancestral_sample,
    baseline_fit,
    cf_fairness_test,
    counterfactual_sample,
    fair_learning,
    fair_predict,
    fit_level2_latent,
    generate,
    group_gaps,
    ks_2sample,
    non_descendants,
    oracle,
    prob_sufficiency,
    save_model,
    strict_cf_check,
)
from cfair.cli import _fit_recipe, _observational, _split_indices, _test_metric, main
from helpers import (
    batch_se,
    chain_model,
    law_school,
    linear_predictor,
    loan,
    manifest_for,
    observed_only,
    red_car,
    single_latent_model,
    split_outcome_model,
)

A_PLUS = {"A": 1.0}
A_MINUS = {"A": -1.0}


def criterion(number: int, budget: float | None = None):
    """Wrap a check so it always leaves one summary line, even on a crash."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = time.perf_counter() - start
                record_acceptance(number, False,
                                  f"{type(exc).__name__}: {str(exc)[:140]} "
                                  f"[{elapsed:.1f}s]")
                raise
            elapsed = time.perf_counter() - start
            note = f"{detail} [{elapsed:.1f}s]"
            if budget is not None and elapsed > budget:
                record_acceptance(number, False, f"over {budget:.0f}s budget: {note}")
                raise AssertionError(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s")
            record_acceptance(number, True, note)
        return wrapper
    return deco


def _weight(predictor, label: str) -> float:
    return float(predictor.weights[list(predictor.labels).index(label)])


@criterion(1, budget=60.0)
def test_criterion_01_red_car_baselines_and_audit_verdicts():
    model, data = red_car(n=1_000_000, seed=11)
    obs = observed_only(model, data)
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    full = baseline_fit(obs, "full", "Y", protected=("A",))
    lam = _weight(unaware, "X")
    assert abs(lam - 0.5) <= 0.01
    assert abs(_weight(full, "X") - 1.0) <= 0.01
    assert abs(_weight(full, "A") + 1.0) <= 0.01

    cfg = McmcConfig(seed=0)
    rep_full = cf_fairness_test(model, full, obs, A_PLUS, A_MINUS, config=cfg,
                                draws=500, max_records=100)
    rep_unaware = cf_fairness_test(model, unaware, obs, A_PLUS, A_MINUS,
                                   config=cfg, draws=500, max_records=100)
    assert rep_full.passed
    assert not rep_unaware.passed
    # flipping the two-point attribute moves an X-reader by 2*lambda*alpha,
    # which is 1.0 at unit parameters; every record shifts by the same amount
    shifts = np.array([r["mean_shift"] for r in rep_unaware.per_record])
    assert np.allclose(shifts, 2.0 * lam, atol=1e-9)
    assert np.all(np.abs(shifts - 1.0) <= 0.05)
    return (f"slope {lam:.4f}, full ({_weight(full, 'X'):.4f}, "
            f"{_weight(full, 'A'):.4f}), unaware shift {shifts.mean():.4f}")


@criterion(2, budget=300.0)
def test_criterion_02_closed_form_grid_matches_fitted_predictions():
    grid = (0.5, 1.0, 2.0)
    variances = (0.5, 1.0)
    cases = []
    for kind, knob in (("red_car", None), ("high_crime", "theta"),
                       ("university", "eta")):
        knob_vals = grid if knob else (None,)
        for alpha, beta, gamma, extra, v_a, v_u in product(
                grid, grid, grid, knob_vals, variances, variances):
            params = {"alpha": alpha, "beta": beta, "gamma": gamma,
                      "v_a": v_a, "v_u": v_u}
            if knob:
                params[knob] = extra
            cases.append((kind, params))

    worst = 0.0
    for i, (kind, params) in enumerate(cases):
        sp = ScenarioParams(kind=kind, params=params, n=5000, seed=20_000 + i)
        bundle = oracle(sp)
        model, data = generate(sp)
        obs = observed_only(model, data)
        full = baseline_fit(obs, "full", "Y", protected=("A",))
        want = (bundle.values["full_weight_x"] * obs.column("X")
                + bundle.values["full_weight_a"] * obs.column("A"))
        err = float(np.max(np.abs(fair_predict(full, model, obs) - want)))
        worst = max(worst, err)
        assert err <= 0.02, (kind, params, err)
        if kind != "red_car":
            assert bundle.verdicts["full"] == "unfair", (kind, params)

    # spot-check that empirical audits agree with the closed-form verdicts
    for kind, extra, expect_pass in (("high_crime", {"theta": 1.0}, False),
                                     ("university", {"eta": 0.5}, False),
                                     ("red_car", {}, True)):
        sp = ScenarioParams(kind=kind, params=extra, n=4000, seed=31)
        model, data = generate(sp)
        obs = observed_only(model, data)
        full = baseline_fit(obs, "full", "Y", protected=("A",))
        rep = cf_fairness_test(model, full, obs, A_PLUS, A_MINUS,
                               config=McmcConfig(seed=0), draws=200,
                               max_records=50)
        assert rep.passed is expect_pass, (kind, rep.aggregate)
    return f"{len(cases)} grid points, worst prediction error {worst:.1e}"


def random_linear_dag(seed: int) -> CausalModel:
    """A -> X0 plus random extra edges over at most eight nodes, all linear."""
    g = np.random.default_rng(seed)
    mids = tuple(f"X{i}" for i in range(int(g.integers(1, 6))))
    variables = [Variable("A", Role.PROTECTED, domain=(-1.0, 1.0)),
                 Variable("U", Role.BACKGROUND)]
    variables += [Variable(m, Role.OBSERVED) for m in mids]
    variables.append(Variable("Y", Role.OUTCOME))
    order = ["A", "U", *mids]
    equations = []
    for i, child in enumerate((*mids, "Y")):
        pool = order if child == "Y" else order[:2 + i]
        k = int(g.integers(1, min(3, len(pool)) + 1))
        parents = ["A"] if child == "X0" else []
        extra = [p for p in pool if p not in parents]
        g.shuffle(extra)
        parents += extra[:max(0, k - len(parents))]
        weights = tuple(float(w) for w in g.uniform(-2.0, 2.0, len(parents)))
        equations.append(StructuralEquation(child, tuple(parents),
                                            LinearGaussian(0.0, weights,
                                                           float(g.uniform(0.2, 1.0)))))
    priors = {"A": CategoricalPrior((-1.0, 1.0), (0.5, 0.5)),
              "U": NormalPrior(0.0, 1.0)}
    return CausalModel(variables, equations, priors)


@criterion(3, budget=120.0)
def test_criterion_03_non_descendant_readers_never_violate_strict_equality():
    cfg = McmcConfig(chains=2, burn_in=100, kept=25, thin=2, seed=0)
    worst = 0.0
    for seed in range(100, 120):
        model = random_linear_dag(seed)
        g = np.random.default_rng(seed + 7)
        nd_obs = sorted(non_descendants(model, "A")
                        & {v.name for v in model.variables
                           if v.role == Role.OBSERVED})
        picks = [name for name in nd_obs if g.random() < 0.7]
        manifest = manifest_for(model, backgrounds=("U",), observables=picks)
        weights = {name: float(g.uniform(-2.0, 2.0)) for name in ("U", *picks)}
        reader = linear_predictor(model, manifest, weights)
        data = observed_only(model, ancestral_sample(model, 30, seed))
        rep = strict_cf_check(model, reader, data, A_PLUS, A_MINUS, config=cfg,
                              draws=50, max_records=10)
        assert rep.passed and rep.aggregate == 0.0, (seed, rep.aggregate)
        worst = max(worst, rep.params["max_abs_diff"])
    return f"20 random graphs, zero violating draws, worst gap {worst:.1e}"


def _two_latent_model() -> CausalModel:
    return CausalModel(
        variables=(Variable("X1", Role.OBSERVED), Variable("X2", Role.OBSERVED),
                   Variable("U1", Role.BACKGROUND), Variable("U2", Role.BACKGROUND)),
        equations=(StructuralEquation("X1", ("U1", "U2"),
                                      LinearGaussian(0.0, (1.0, 0.5), 0.8)),
                   StructuralEquation("X2", ("U2",),
                                      LinearGaussian(0.5, (1.5,), 0.6))),
        priors={"U1": NormalPrior(0.0, 1.0), "U2": NormalPrior(0.0, 1.0)})


@criterion(4)
def test_criterion_04_exact_and_mcmc_abduction_agree():
    fixtures = (
        (single_latent_model(noise=1.0), {"X": 2.0}),
        (_two_latent_model(), {"X1": 0.7, "X2": -0.4}),
        (split_outcome_model(noise=0.5), {"A": 1, "X": 1.2}),
        (chain_model(noise=0.8), {"A": 0, "X": 0.6}),
    )
    z_scores = []
    for model, evidence in fixtures:
        exact = abduct_exact(model, evidence)
        draws = abduct_mcmc(model, evidence,
                            McmcConfig(seed=5, chains=2, kept=400,
                                       burn_in=300, thin=3))
        for name in exact.names:
            u = draws.column(name)
            mu = exact.mean[exact.names.index(name)]
            se = batch_se(u)
            assert abs(u.mean() - mu) <= 5 * se, (name, u.mean(), mu, se)
            z_scores.append(abs(u.mean() - mu) / se)

    # a do() matching the factual value must reproduce the factual conditional
    model = split_outcome_model(noise=0.5)
    evidence = {"A": 1, "X": 1.2}
    factual = counterfactual_sample(model, evidence, {}, 10_000, McmcConfig(seed=1))
    null_iv = counterfactual_sample(model, evidence, {"A": 1}, 10_000,
                                    McmcConfig(seed=2))
    ks = ks_2sample(factual.column("Y"), null_iv.column("Y"))
    assert ks <= 0.02
    return (f"max |z| {max(z_scores):.2f} over {len(z_scores)} posteriors, "
            f"null-do KS {ks:.4f}")


@criterion(5, budget=10.0)
def test_criterion_05_loan_flip_rates_match_enumeration():
    model, _ = loan(n=1, seed=0)
    table = dict(model.equation_map["Employed"].family.entries)
    priors = model.prior_map
    weight = {name: dict(zip(priors[name].values, priors[name].probs))
              for name in ("A", "P", "Q")}
    mass = flips = 0.0
    for a, p, q in product((0, 1), repeat=3):
        w = weight["A"][a] * weight["P"][p] * weight["Q"][q]
        if a == 1 and table[(1, p, q)] == 0:
            mass += w
            flips += w * (table[(0, p, q)] != 0)
    enum = flips / mass

    reader = linear_predictor(
        model, manifest_for(model, observables=("Employed",),
                            whitelist=("Employed",)), {"Employed": 1.0})
    ps = prob_sufficiency(model, reader, {"A": 1, "Employed": 0}, 0.0, {"A": 0})
    assert ps["method"] == "enumeration"
    assert abs(ps["probability"] - enum) <= 0.01

    cfg = McmcConfig(chains=2, burn_in=500, kept=5000, thin=2, seed=6)
    out = counterfactual_sample(model, {"A": 1, "Employed": 0}, {"A": 0},
                                10_000, cfg)
    rate = float((out.column("Employed") != 0).mean())
    assert abs(rate - enum) <= 0.01
    return (f"enumeration {enum:.4f}, sufficiency {ps['probability']:.4f}, "
            f"twin flip {rate:.4f}")


@pytest.mark.slow
@criterion(6, budget=600.0)
def test_criterion_06_training_pipeline_ordering_and_audit_pattern():
    recipes = ("full", "unaware", "fair_k", "fair_add")
    reps = 20
    order_ok = audits_ok = sex_below_race = 0
    for rep in range(reps):
        seed = 1000 + rep
        model, data = generate(ScenarioParams(kind="law_school", n=5000, seed=seed))
        obs = _observational(data, model)
        y = obs.column("FYA").astype(np.float64)
        train_idx, test_idx, _ = _split_indices(y, 0.8, seed)
        train, test = obs.take(train_idx), obs.take(test_idx)
        cfg = McmcConfig(seed=seed, chains=2, burn_in=200, kept=40, thin=2)

        rmse = {}
        fitted = {}
        for recipe in recipes:
            predictor, pred_model = _fit_recipe(recipe, train, model, "FYA",
                                                "linear", cfg)
            scores = fair_predict(predictor, pred_model, test, config=cfg)
            rmse[recipe] = _test_metric("linear",
                                        test.column("FYA").astype(np.float64),
                                        scores)[1]
            fitted[recipe] = (predictor, pred_model)
        order_ok += (rmse["full"] <= rmse["unaware"]
                     <= min(rmse["fair_k"], rmse["fair_add"]))

        race = {}
        for recipe in recipes:
            predictor, pred_model = fitted[recipe]
            report = cf_fairness_test(pred_model, predictor, test,
                                      {"R": 1}, {"R": 0}, config=cfg)
            race[recipe] = report.aggregate
            audits_ok += report.passed is (recipe in ("fair_k", "fair_add"))
        predictor, pred_model = fitted["full"]
        sex = cf_fairness_test(pred_model, predictor, test, {"S": 1}, {"S": 0},
                               config=cfg)
        sex_below_race += sex.aggregate < race["full"]

    assert order_ok >= 18, order_ok
    assert audits_ok == len(recipes) * reps, audits_ok
    assert sex_below_race == reps, sex_below_race
    return (f"rmse order {order_ok}/{reps}, audit verdicts "
            f"{audits_ok}/{len(recipes) * reps}, sex<race {sex_below_race}/{reps}")


@criterion(7)
def test_criterion_07_nonzero_ace_with_zero_counterfactual_difference():
    model, data = red_car(n=500, seed=3)
    reader = linear_predictor(model, manifest_for(model, backgrounds=("U",)),
                              {"U": 0.5})
    # population slope of Y on X is 0.5 here, so the interventional contrast
    # of any calibrated score is lambda * |a - a'| = 1.0
    target = oracle(ScenarioParams(kind="red_car")).values["unaware_slope"] * 2.0
    out = ace(model, reader, {"X": 1.0}, A_PLUS, A_MINUS, n_draws=4000,
              config=McmcConfig(seed=0))
    assert out["method"] == "exact"
    assert abs(out["ace"]) >= 0.9 * target

    strict = strict_cf_check(model, reader, observed_only(model, data),
                             A_PLUS, A_MINUS, config=McmcConfig(seed=0),
                             draws=50, max_records=50)
    assert strict.passed
    assert strict.params["max_abs_diff"] <= 1e-9
    return (f"|ACE| {abs(out['ace']):.3f} vs target {target:.2f}, "
            f"worst per-draw gap {strict.params['max_abs_diff']:.1e}")


@criterion(8)
def test_criterion_08_fair_learning_demographic_parity():
    model, data = red_car(n=100_000, seed=7)
    manifest = manifest_for(model, backgrounds=("U",))
    predictor = fair_learning(data, model, manifest,
                              config=McmcConfig(chains=2, kept=10, burn_in=50,
                                                thin=1, seed=0))
    assert predictor.training["draws_per_record"] == 20
    gaps = group_gaps(predictor, data, "Y", A_PLUS, A_MINUS, model=model,
                      config=McmcConfig(chains=1, kept=1, seed=0))
    assert gaps["dp_gap"] <= 0.02
    return f"dp gap {gaps['dp_gap']:.4f} at m=20 posterior draws per record"


@criterion(9, budget=300.0)
def test_criterion_09_latent_fit_recovers_generating_parameters():
    model, data = law_school(n=5000, seed=4)
    fit = fit_level2_latent(observed_only(model, data), model,
                            config=McmcConfig(seed=0, chains=2, burn_in=200,
                                              kept=40, thin=2))
    worst = 0.0
    for child, fitted in fit.params.items():
        eq = model.equation_map[child]
        worst = max(worst, abs(fitted["intercept"] - eq.family.intercept))
        for parent, w in zip(eq.parents, eq.family.weights):
            worst = max(worst, abs(fitted["weights"][parent] - w))
    assert worst <= 0.1
    r = float(np.corrcoef(fit.latent_means(), data.column("K"))[0, 1])
    assert r >= 0.8
    return f"worst parameter error {worst:.3f}, latent correlation {r:.3f}"


@criterion(10)
def test_criterion_10_cli_runs_are_byte_stable(tmp_path, capsys):
    stable = []

    def snapshot(outputs):
        stdout = capsys.readouterr().out
        files = {}
        for root in outputs:
            root = Path(root)
            if root.is_file():
                files[str(root)] = root.read_bytes()
            else:
                for p in sorted(root.rglob("*")):
                    if p.is_file():
                        files[str(p)] = p.read_bytes()
        return stdout, files

    def run_twice(args, outputs):
        assert main(args) == 0, args
        first = snapshot(outputs)
        for root in map(Path, outputs):
            shutil.rmtree(root) if root.is_dir() else root.unlink()
        assert main(args) == 0, args
        assert snapshot(outputs) == first, args[0]
        stable.append(args[0])

    model_path = tmp_path / "chain.json"
    save_model(chain_model(noise=0.5), model_path)
    run_twice(["validate", str(model_path)], [])

    sc = tmp_path / "sc"
    run_twice(["scenario", "red_car", "--n", "400", "--seed", "3",
               "--out", str(sc)], [sc])

    sim = tmp_path / "sim.csv"
    run_twice(["simulate", str(model_path), "--n", "60", "--seed", "4",
               "--out", str(sim)], [sim])

    ls = tmp_path / "ls"
    assert main(["scenario", "law_school", "--n", "300", "--seed", "6",
                 "--out", str(ls)]) == 0
    capsys.readouterr()
    predictor_path, fitted_path = tmp_path / "fair_k.json", tmp_path / "fitted.json"
    run_twice(["fit", str(ls / "model.json"), str(ls / "data.csv"),
               "--recipe", "fair_k", "--out", str(predictor_path),
               "--fitted-model-out", str(fitted_path),
               "--chains", "1", "--burn-in", "100", "--kept", "20",
               "--thin", "2", "--seed", "2"], [predictor_path, fitted_path])

    full_path = tmp_path / "full.json"
    assert main(["fit", str(sc / "model.json"), str(sc / "data.csv"),
                 "--recipe", "full", "--out", str(full_path)]) == 0
    capsys.readouterr()
    report_dir = tmp_path / "audit"
    run_twice(["audit", str(full_path), str(sc / "model.json"),
               str(sc / "data.csv"), "--criterion", "cf",
               "--a", "A=1", "--a-prime", "A=-1", "--draws", "100",
               "--max-records", "30", "--out", str(report_dir)], [report_dir])

    exp_cfg = {"scenario": {"kind": "red_car", "n": 300, "seed": 9},
               "outcome": "Y",
               "recipes": ["full", "unaware", "fair_learning", "fair_add"],
               "mcmc": {"chains": 1, "burn_in": 50, "kept": 10, "thin": 1},
               "audits": [{"criterion": "cf", "a": {"A": 1},
                           "a_prime": {"A": -1}, "draws": 50,
                           "max_records": 15}]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(exp_cfg))
    run_dir = tmp_path / "run"
    run_twice(["experiment", str(cfg_path), "--out", str(run_dir),
               "--seed", "1"], [run_dir])
    return "byte-stable reruns: " + ", ".join(stable)
