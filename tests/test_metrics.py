import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from scipy.special import expit

from cfair import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    Dataset,
    DeterministicTable,
    EmptyGroup,
    InvalidPath,
    LinearGaussian,
    McmcConfig,
    NonFiniteDensity,
    NormalPrior,
    PoissonLogLink,
    Role,
    StructuralEquation,
    UnattainableValue,
    Variable,
    ace,
    additive_fair_fit,
    ancestral_sample,
    baseline_fit,
    cf_fairness_test,
    fair_learning,
    fair_predict,
    forward_eval,
    ftu_check,
    group_gaps,
    ks_2sample,
    path_cf_test,
    prob_sufficiency,
    strict_cf_check,
)
from cfair import metrics
from helpers import (chain_model, digest, high_crime, law_school, linear_predictor,
                     loan, manifest_for, observed_only, red_car)

A_HI, A_LO = {"A": 1.0}, {"A": -1.0}
LS_CFG = McmcConfig(chains=2, burn_in=200, kept=40, thin=2, seed=0)


def _fair_red_car(n=2000, seed=0, **params):
    model, data = red_car(n=n, seed=seed, **params)
    manifest = manifest_for(model, backgrounds=("U",))
    predictor = fair_learning(data, model, manifest, config=McmcConfig(seed=1))
    return model, data, predictor


# ---------------------------------------------------------------------------
# two-sample distance


def test_ks_matches_scipy_on_continuous_samples():
    gen = np.random.default_rng(3)
    x, y = gen.normal(size=400), gen.normal(0.3, 1.2, size=300)
    assert ks_2sample(x, y) == pytest.approx(stats.ks_2samp(x, y).statistic, abs=1e-12)


def test_ks_matches_scipy_under_heavy_ties():
    gen = np.random.default_rng(4)
    x, y = gen.integers(0, 4, 500).astype(float), gen.integers(0, 4, 200).astype(float)
    assert ks_2sample(x, y) == pytest.approx(stats.ks_2samp(x, y).statistic, abs=1e-12)


def test_ks_extremes():
    assert ks_2sample(np.zeros(10), np.ones(7)) == 1.0
    x = np.linspace(0, 1, 20)
    assert ks_2sample(x, x.copy()) == 0.0


_KS_POOL = np.array([np.nan, -np.inf, np.inf, -0.0, 0.0, 0.5, 1.0, 2.0])


@pytest.mark.parametrize("block_values", [1, 60, None])
@pytest.mark.parametrize("values", ["continuous", "ties"])
def test_per_record_ks_equals_ks_2sample_row_by_row_bit_for_bit(values, block_values,
                                                                monkeypatch):
    # the batched KS reads the two CDFs at the end of each tie group of a merged
    # sort; ties, signed zeros, infinities and NaNs must count as searchsorted does
    if block_values is not None:
        monkeypatch.setattr(metrics, "_KS_BLOCK_VALUES", block_values)
    gen = np.random.default_rng(8)
    shape = (60, 25)
    if values == "continuous":
        f, cf = gen.normal(size=shape), gen.normal(0.4, 1.0, size=shape)
    else:
        f, cf = gen.choice(_KS_POOL, shape), gen.choice(_KS_POOL, shape)
    with np.errstate(invalid="ignore"):  # the pooled spread of infinities
        per_record, worst, _ = metrics._ks_records(np.arange(60), f, cf, 0.0)
    want = [ks_2sample(x, y) for x, y in zip(f, cf)]
    assert [r["ks"] for r in per_record] == want
    assert worst == max(want)


def test_per_record_ks_is_zero_where_sorted_samples_lie_within_the_tie_tolerance():
    gen = np.random.default_rng(9)
    f = gen.normal(size=(4, 30))
    cf = f + 1e-4
    cf[1] += 1.0
    cf[3, 0] += 1.0
    per_record, worst, tie_tol = metrics._ks_records(np.arange(4), f, cf, 0.08)
    assert 1e-4 < tie_tol
    assert [r["ks"] for r in per_record] == [0.0, ks_2sample(f[1], cf[1]), 0.0,
                                            ks_2sample(f[3], cf[3])]


# ---------------------------------------------------------------------------
# distribution-level audit


def test_constant_predictor_always_passes():
    model, data = red_car(n=300, seed=2)
    predictor = linear_predictor(model, manifest_for(model, backgrounds=("U",)), {})
    report = cf_fairness_test(model, predictor, data, A_HI, A_LO, draws=100,
                              max_records=40)
    assert report.passed
    assert report.aggregate == 0.0


def test_red_car_audit_separates_full_from_unaware():
    model, data = red_car(n=4000, seed=11)
    obs = observed_only(model, data)
    full = baseline_fit(obs, "full", "Y", protected=("A",))
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    rep_full = cf_fairness_test(model, full, obs, A_HI, A_LO, draws=300,
                                max_records=60)
    rep_unaware = cf_fairness_test(model, unaware, obs, A_HI, A_LO, draws=300,
                                   max_records=60)
    # the full fit recovers Y = X - A = U, a function of the latent alone, so
    # the A and X contributions cancel under the flip; the unaware fit leans
    # on X, which proxies A
    assert rep_full.passed
    assert not rep_unaware.passed
    lam = float(unaware.weights[unaware.labels.index("X")])
    shifts = [r["mean_shift"] for r in rep_unaware.per_record]
    assert np.allclose(shifts, 2.0 * lam, atol=1e-9)


def test_red_car_latent_predictor_passes_audit():
    model, data, predictor = _fair_red_car(seed=4)
    report = cf_fairness_test(model, predictor, observed_only(model, data),
                              A_HI, A_LO, draws=300, max_records=60)
    assert report.passed
    assert report.aggregate == 0.0


def test_law_school_race_flip_dominates_sex_flip():
    model, data = law_school(n=1500, seed=8)
    obs = observed_only(model, data)
    full = baseline_fit(obs, "full", "FYA", protected=("R", "S"))
    race = cf_fairness_test(model, full, obs, {"R": 1}, {"R": 0},
                            config=LS_CFG, draws=300, max_records=50)
    sex = cf_fairness_test(model, full, obs, {"S": 1}, {"S": 0},
                           config=LS_CFG, draws=300, max_records=50)
    assert not race.passed
    assert race.aggregate > sex.aggregate + 0.2


# ---------------------------------------------------------------------------
# strict draw-level audit


def test_strict_check_accepts_latent_only_predictor():
    model, data, predictor = _fair_red_car(seed=5)
    report = strict_cf_check(model, predictor, observed_only(model, data),
                             A_HI, A_LO, draws=100, max_records=40)
    assert report.passed
    assert report.params["max_abs_diff"] == 0.0


def test_strict_check_flags_every_draw_of_a_proxy_predictor():
    model, data = high_crime(n=1000, seed=6)
    obs = observed_only(model, data)
    full = baseline_fit(obs, "full", "Y", protected=("A",))
    report = strict_cf_check(model, full, obs, A_HI, A_LO, draws=100,
                             max_records=40)
    assert not report.passed
    assert report.aggregate == 1.0  # shift is constant, so all draws violate


def test_strict_check_trivial_when_nothing_flips():
    model, data = red_car(n=500, seed=7)
    obs = observed_only(model, data)
    full = baseline_fit(obs, "full", "Y", protected=("A",))
    report = strict_cf_check(model, full, obs, A_HI, A_HI, draws=50,
                             max_records=30)
    assert report.passed
    assert report.params["max_abs_diff"] == 0.0


# ---------------------------------------------------------------------------
# path-specific audit


def _admissions_model() -> CausalModel:
    # department choice mediates one effect of A; a second effect is direct
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, (0, 1)),
                   Variable("W", Role.BACKGROUND),
                   Variable("D", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME)),
        equations=(StructuralEquation("D", ("A", "W"),
                                      LinearGaussian(0.0, (0.5, 1.0), 0.5)),
                   StructuralEquation("Y", ("D", "A"),
                                      LinearGaussian(0.0, (1.0, 0.8), 0.0))),
        priors={"A": CategoricalPrior((0, 1), (0.5, 0.5)),
                "W": NormalPrior(0.0, 1.0)})


def test_path_audit_pins_mediators_off_the_listed_paths():
    model = _admissions_model()
    data = ancestral_sample(model, 600, seed=1)
    direct_only = [["A", "Y"]]
    via_d = linear_predictor(model, manifest_for(model, observables=("D",),
                                                 whitelist=("D",)), {"D": 1.0})
    via_a = linear_predictor(model, manifest_for(model, include_protected=True),
                             {"A": 1.0})
    rep_d = path_cf_test(model, via_d, data, direct_only, {"A": 1}, {"A": 0},
                         draws=100, max_records=30)
    assert rep_d.passed  # D is held factual, so a D-reader cannot move
    assert rep_d.params["held"] == ["D"]
    rep_a = path_cf_test(model, via_a, data, direct_only, {"A": 1}, {"A": 0},
                         draws=100, max_records=30)
    assert not rep_a.passed
    assert rep_a.aggregate == 1.0


def test_full_path_set_agrees_with_unrestricted_audit():
    model, data = high_crime(n=1200, seed=9)
    obs = observed_only(model, data)
    full = baseline_fit(obs, "full", "Y", protected=("A",))
    all_paths = [["A", "X"], ["A", "X", "Y"]]
    via_paths = path_cf_test(model, full, obs, all_paths, A_HI, A_LO,
                             draws=200, max_records=40)
    plain = cf_fairness_test(model, full, obs, A_HI, A_LO,
                             draws=200, max_records=40)
    assert via_paths.params["held"] == []
    assert abs(via_paths.aggregate - plain.aggregate) <= 0.05


def test_empty_path_set_holds_every_observable():
    model, data = high_crime(n=800, seed=10)
    obs = observed_only(model, data)
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    report = path_cf_test(model, unaware, obs, [], A_HI, A_LO,
                          draws=100, max_records=30)
    assert report.passed
    assert report.params["held"] == ["X"]


def test_path_validation_errors():
    model, data = red_car(n=50, seed=1)
    with pytest.raises(InvalidPath):
        path_cf_test(model, linear_predictor(model, manifest_for(
            model, backgrounds=("U",)), {}), data, [["X", "Y"]], A_HI, A_LO)
    with pytest.raises(InvalidPath):
        path_cf_test(model, linear_predictor(model, manifest_for(
            model, backgrounds=("U",)), {}), data, [["A"]], A_HI, A_LO)
    with pytest.raises(InvalidPath):  # red_car has no direct A -> Y edge
        path_cf_test(model, linear_predictor(model, manifest_for(
            model, backgrounds=("U",)), {}), data, [["A", "Y"]], A_HI, A_LO)


# ---------------------------------------------------------------------------
# group rates


def test_group_gaps_near_zero_for_latent_predictor():
    model, data, predictor = _fair_red_car(n=100_000, seed=12)
    obs = observed_only(model, data)
    gaps = group_gaps(predictor, obs, "Y", A_HI, A_LO, model=model,
                      config=McmcConfig(chains=1, kept=1, seed=0))
    assert gaps["dp_gap"] <= 0.02
    assert gaps["eo_gap"] is None  # continuous outcome
    assert gaps["n_a"] + gaps["n_a_prime"] == data.n


def test_group_gaps_symmetric_in_group_order():
    model, data = high_crime(n=5000, seed=13)
    obs = observed_only(model, data)
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    one = group_gaps(unaware, obs, "Y", A_HI, A_LO)
    other = group_gaps(unaware, obs, "Y", A_LO, A_HI)
    assert one["dp_gap"] == other["dp_gap"]
    assert (one["n_a"], one["n_a_prime"]) == (other["n_a_prime"], other["n_a"])


def test_group_gaps_expose_proxy_predictor():
    model, data = high_crime(n=20_000, seed=14)
    obs = observed_only(model, data)
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    gaps = group_gaps(unaware, obs, "Y", A_HI, A_LO)
    assert gaps["dp_gap"] > 0.1


def test_group_gaps_empty_group():
    model, data = red_car(n=100, seed=15)
    obs = observed_only(model, data)
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    with pytest.raises(EmptyGroup):
        group_gaps(unaware, obs, "Y", {"A": 7.0}, A_LO)
    with pytest.raises(EmptyGroup):
        cf_fairness_test(model, unaware, obs, {"A": 7.0}, A_LO, draws=10)


def test_ftu_check_reads_the_design_not_the_data():
    model, data = red_car(n=200, seed=16)
    obs = observed_only(model, data)
    assert not ftu_check(baseline_fit(obs, "full", "Y", protected=("A",)))
    assert ftu_check(baseline_fit(obs, "unaware", "Y", protected=("A",)))
    assert ftu_check(_fair_red_car(n=200, seed=16)[2])


# ---------------------------------------------------------------------------
# average causal effect


def test_ace_zero_when_assignments_match():
    model, data, predictor = _fair_red_car(seed=17)
    out = ace(model, predictor, {"X": 1.0}, A_HI, A_HI, n_draws=500)
    assert out["ace"] == 0.0
    assert out["method"] == "exact"
    assert out["band"] == 0.0


def test_ace_exact_route_matches_conditioning_algebra():
    # score = w0 + wU * U and X = alpha A + beta U exactly, so conditioning on
    # X = 1 in each regime deduces U = (1 - alpha a) / beta: the regimes differ
    # by -2 alpha wU / beta
    model, data, predictor = _fair_red_car(seed=18)
    w_u = float(predictor.weights[predictor.labels.index("U")])
    out = ace(model, predictor, {"X": 1.0}, A_HI, A_LO, n_draws=2000)
    assert out["method"] == "exact"
    assert out["ace"] == pytest.approx(-2.0 * w_u, abs=1e-6)


def test_ace_rejection_route_on_non_gaussian_model():
    model, _ = law_school(n=1, seed=0)
    gpa_reader = linear_predictor(model, manifest_for(model, observables=("GPA",),
                                                      whitelist=("GPA",)),
                                  {"GPA": 1.0})
    out = ace(model, gpa_reader, {"LSAT": 3.0}, {"R": 1}, {"R": 0},
              n_draws=20_000, config=McmcConfig(seed=3))
    assert out["method"] == "rejection"
    assert out["accepted_a"] > 1000
    assert out["band"] > 0.0
    # race does not reach LSAT by default, so conditioning stays symmetric and
    # the effect is exactly the direct GPA race weight
    assert abs(out["ace"] - 1.0) <= 0.15


# ---------------------------------------------------------------------------
# probability of sufficiency


def test_sufficiency_matches_hand_enumeration_on_loan():
    model, _ = loan(n=1, seed=0)
    reader = linear_predictor(model, manifest_for(model, observables=("Employed",),
                                                  whitelist=("Employed",)),
                              {"Employed": 1.0})
    out = prob_sufficiency(model, reader, {"A": 1, "Employed": 0}, 0.0, {"A": 0})
    employed = lambda a, p, q: int(q == 1 and not (p == 1 and a == 1))
    states = [(p, q) for p in (0, 1) for q in (0, 1) if employed(1, p, q) == 0]
    flipped = sum(employed(0, p, q) != 0 for p, q in states)
    assert out["method"] == "enumeration"
    assert out["probability"] == pytest.approx(flipped / len(states), abs=1e-12)
    assert out["probability"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_sufficiency_zero_for_constant_predictor():
    model, _ = loan(n=1, seed=0)
    reader = linear_predictor(model, manifest_for(model, observables=("Employed",),
                                                  whitelist=("Employed",)),
                              {}, intercept=0.7)
    out = prob_sufficiency(model, reader, {"A": 1, "Employed": 1}, 0.7, {"A": 0})
    assert out["probability"] == 0.0


def test_sufficiency_zero_for_latent_only_predictor():
    model, data, predictor = _fair_red_car(seed=19)
    record = {"A": float(data.column("A")[0]), "X": float(data.column("X")[0])}
    u = record["X"] - record["A"]  # alpha = beta = 1
    y = float(predictor.score({"U": np.array([u])})[0])
    out = prob_sufficiency(model, predictor, record, y, {"A": -1.0},
                           config=McmcConfig(chains=1, kept=50, seed=1))
    assert out["probability"] == 0.0


def test_sufficiency_requires_attainable_score():
    model, data = red_car(n=50, seed=20)
    obs = observed_only(model, data)
    unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
    record = {"A": 1.0, "X": 1.0}
    score = float(unaware.score({"X": np.ones(1)})[0])
    with pytest.raises(UnattainableValue):
        prob_sufficiency(model, unaware, record, score + 0.5, {"A": -1.0})


def test_sufficiency_counts_joint_states_without_wrapping():
    # 2**64 joint states wrap to 0 in an int64 product, which once passed the
    # enumeration cap and failed in np.meshgrid; they take the abduction route
    noise = [f"P{i}" for i in range(64)]
    coin = CategoricalPrior((0, 1), (0.5, 0.5))
    model = CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(0, 1)), Variable("X", Role.OBSERVED))
        + tuple(Variable(p, Role.BACKGROUND, domain=(0, 1)) for p in noise),
        equations=(StructuralEquation("X", ("A", "P0"), LinearGaussian(0.0, (1.0, 1.0), 0.0)),),
        priors={"A": coin, **{p: coin for p in noise}})
    reader = _reader(model, {"X": 1.0})
    out = prob_sufficiency(model, reader, {"A": 1, "X": 1.0}, 1.0, {"A": 0},
                           config=McmcConfig(chains=1, burn_in=10, kept=10, seed=1))
    assert out["method"] == "abduction"
    assert out["probability"] == 1.0  # P0 = 0, so X = 0 under do(A = 0)


def _likelihood_model(q_values=None) -> CausalModel:
    """A and background P (and Q, with q_values as its prior) feed a table D;
    P (and Q) feed a Bernoulli E, a normal G and a Poisson C, observed as
    _LIKELIHOOD_RECORD. Without Q, D = A xor P; with it, D = A * P + [Q == 2]."""
    variables = [Variable("A", Role.PROTECTED, domain=(0, 1)),
                 Variable("P", Role.BACKGROUND, domain=(0, 1)),
                 Variable("D", Role.OBSERVED, domain=(0, 1, 2)),
                 Variable("E", Role.OBSERVED, domain=(0, 1)),
                 Variable("G", Role.OBSERVED), Variable("C", Role.OBSERVED)]
    priors = {"A": CategoricalPrior((0, 1), (0.5, 0.5)), "P": CategoricalPrior((0, 1), (0.6, 0.4))}
    if q_values is None:
        parents, q_w = ("P",), ()
        table = {(a, p): a ^ p for a in (0, 1) for p in (0, 1)}
    else:
        variables.append(Variable("Q", Role.BACKGROUND, domain=(0, 1, 2)))
        priors["Q"] = CategoricalPrior((0, 1, 2), q_values)
        parents, q_w = ("P", "Q"), (-0.4,)
        table = {(a, p, q): a * p + (q == 2) for a in (0, 1) for p in (0, 1) for q in (0, 1, 2)}
    return CausalModel(
        variables=tuple(variables),
        equations=(StructuralEquation("D", ("A",) + parents, DeterministicTable(table)),
                   StructuralEquation("E", parents, BernoulliLogit(-0.3, (1.5,) + q_w)),
                   StructuralEquation("G", parents, LinearGaussian(0.2, (1.0,) + q_w, 0.5)),
                   StructuralEquation("C", parents, PoissonLogLink(0.2, (0.5,) + q_w))),
        priors=priors)


_LIKELIHOOD_RECORD = {"A": 1, "E": 1, "G": 0.7, "C": 2}


def _likelihood_weight(p: int, q: int = 0) -> float:
    """Unnormalised posterior weight of the state (P, Q) = (p, q) given
    _LIKELIHOOD_RECORD, where Q enters every likelihood with weight -0.4."""
    return (expit(-0.3 + 1.5 * p - 0.4 * q) * stats.norm.pdf(0.7, 0.2 + p - 0.4 * q, 0.5)
            * stats.poisson.pmf(2, np.exp(0.2 + 0.5 * p - 0.4 * q)))


def test_sufficiency_enumeration_weighs_bernoulli_normal_and_poisson_evidence():
    # the enumeration multiplies each state's prior by the likelihood of every
    # observed stochastic child; D = 1 only where P = 0
    model = _likelihood_model()
    out = prob_sufficiency(model, _reader(model, {"D": 1.0}), _LIKELIHOOD_RECORD, 1.0, {"A": 0})
    w = [0.6 * _likelihood_weight(0), 0.4 * _likelihood_weight(1)]
    assert out["method"] == "enumeration"
    assert abs(out["conditioned_mass"] - w[0] / sum(w)) <= 1e-12
    assert out["probability"] == 1.0  # do(A = 0) turns D = 1 into D = 0


def test_sufficiency_enumeration_over_two_latents():
    # D = 1 at (P, Q) = (1, 0), (1, 1) and (0, 2); under do(A = 0) only the
    # last keeps D = 1
    q_prior = (0.2, 0.5, 0.3)
    model = _likelihood_model(q_prior)
    out = prob_sufficiency(model, _reader(model, {"D": 1.0}), _LIKELIHOOD_RECORD, 1.0, {"A": 0})
    w = {(p, q): (0.6, 0.4)[p] * q_prior[q] * _likelihood_weight(p, q)
         for p in (0, 1) for q in (0, 1, 2)}
    kept = w[1, 0] + w[1, 1] + w[0, 2]
    assert out["method"] == "enumeration" and out["states"] == 6
    assert abs(out["conditioned_mass"] - kept / sum(w.values())) <= 1e-12
    assert abs(out["probability"] - (w[1, 0] + w[1, 1]) / kept) <= 1e-12
    assert 0.0 < out["probability"] < 1.0


def _with_child(model, var, eq) -> CausalModel:
    return CausalModel(model.variables + (var,), model.equations + (eq,), model.priors)


def test_sufficiency_enumeration_skips_an_unread_table_child_of_a_stochastic_node():
    # Z is a table over the Bernoulli outcome Y, which no joint state fixes;
    # the Employed reader never reads Z, so the answer is the one without it
    model, _ = loan(n=1, seed=0)
    with_z = _with_child(model, Variable("Z", Role.OBSERVED, (0, 1)),
                         StructuralEquation("Z", ("Y",), DeterministicTable({(0,): 1, (1,): 0})))
    out = [prob_sufficiency(m, _reader(m, {"Employed": 1.0}), {"A": 1, "Employed": 0},
                            0.0, {"A": 0}) for m in (model, with_z)]
    assert out[1] == out[0]
    assert (out[1]["method"], out[1]["probability"]) == ("enumeration", 1.0 / 3.0)


def test_sufficiency_abducts_when_the_joint_state_leaves_a_mediator_open():
    # the observed table E = M reads the unobserved M ~ Bernoulli(sigmoid(A + P)),
    # which the state P does not fix, so the abduction route answers.
    # E = 1 forces M = 1, which weighs P = p by sigmoid(1 + p); under
    # do(A = 0) M is drawn again and is 0 with probability sigmoid(-p)
    model = CausalModel(
        variables=(Variable("A", Role.PROTECTED, (0, 1)), Variable("P", Role.BACKGROUND, (0, 1)),
                   Variable("M", Role.OBSERVED, (0, 1)), Variable("E", Role.OBSERVED, (0, 1))),
        equations=(StructuralEquation("M", ("A", "P"), BernoulliLogit(0.0, (1.0, 1.0))),
                   StructuralEquation("E", ("M",), DeterministicTable({(0,): 0, (1,): 1}))),
        priors={"A": CategoricalPrior((0, 1), (0.5, 0.5)),
                "P": CategoricalPrior((0, 1), (0.5, 0.5))})
    out = prob_sufficiency(model, _reader(model, {"E": 1.0}), {"A": 1, "E": 1}, 1.0, {"A": 0},
                           McmcConfig(chains=2, burn_in=100, kept=1000, seed=1))
    w = expit(np.array([1.0, 2.0]))
    assert out["method"] == "abduction"
    assert abs(out["probability"] - float(w @ expit(-np.arange(2.0)) / w.sum())) <= 0.05


def test_sufficiency_enumeration_scores_the_numeric_states_fair_learning_reads():
    # the predictor reads the backgrounds P and Q as numbers; (P, Q) = (0, 1)
    # agrees with an employed record and stays put under do(A = 1)
    model, data = loan(n=500, seed=3)
    predictor = fair_learning(observed_only(model, data), model,
                              manifest_for(model, backgrounds=("P", "Q")),
                              config=McmcConfig(chains=1, burn_in=50, kept=20, seed=1))
    y = float(predictor.score({"P": np.array([0]), "Q": np.array([1])})[0])
    out = prob_sufficiency(model, predictor, {"A": 0, "Employed": 1}, y, {"A": 1})
    assert (out["method"], out["states"], out["probability"]) == ("enumeration", 4, 0.0)


# ---------------------------------------------------------------------------
# pinned outputs


_PIN_CFG = McmcConfig(chains=2, burn_in=60, kept=20, thin=2, seed=3)


def _string_model() -> CausalModel:
    # a string-valued protected root read through a lookup table, so every
    # audit path that pins or matches an observed value meets a str
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=("f", "m")),
                   Variable("B", Role.OBSERVED),
                   Variable("U", Role.BACKGROUND),
                   Variable("X", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME)),
        equations=(StructuralEquation("B", ("A",),
                                      DeterministicTable({("f",): 0.0, ("m",): 1.0})),
                   StructuralEquation("X", ("B", "U"),
                                      LinearGaussian(0.0, (1.0, 1.0), 0.5)),
                   StructuralEquation("Y", ("X",), LinearGaussian(0.0, (1.0,), 0.5))),
        priors={"A": CategoricalPrior(("f", "m"), (0.5, 0.5)),
                "U": NormalPrior(0.0, 1.0)})


def _pinned_law(n=300, seed=2):
    model, data = law_school(n=n, seed=seed)
    obs = observed_only(model, data)
    return model, obs, baseline_fit(obs, "full", "FYA", protected=model.protected)


def _pinned_chain(n=300, seed=4):
    model = chain_model(noise=0.5)
    return model, observed_only(model, ancestral_sample(model, n, seed=seed))


def _reader(model, weights, backgrounds=(), intercept=0.0):
    observables = tuple(n for n in weights if n not in backgrounds)
    return linear_predictor(model, manifest_for(model, backgrounds=backgrounds,
                                                observables=observables,
                                                whitelist=observables),
                            weights, intercept)


def _audit_outputs(name):
    if name == "cf_exact":
        model, data = red_car(n=400, seed=30)
        obs = observed_only(model, data)
        unaware = baseline_fit(obs, "unaware", "Y", protected=("A",))
        return cf_fairness_test(model, unaware, obs, A_HI, A_LO, draws=60,
                                max_records=15).to_json()
    if name == "cf_mcmc_law":
        model, obs, full = _pinned_law()
        return cf_fairness_test(model, full, obs, {"R": 1}, {"R": 0}, _PIN_CFG,
                                draws=40, max_records=8).to_json()
    if name == "cf_mcmc_string":
        model = _string_model()
        obs = observed_only(model, ancestral_sample(model, 200, seed=1))
        return cf_fairness_test(model, _reader(model, {"X": 1.0}), obs, {"A": "m"},
                                {"A": "f"}, _PIN_CFG, draws=40, max_records=8).to_json()
    if name == "strict_exact":
        model, data = high_crime(n=300, seed=31)
        obs = observed_only(model, data)
        full = baseline_fit(obs, "full", "Y", protected=("A",))
        return strict_cf_check(model, full, obs, A_HI, A_LO, draws=40,
                               max_records=10).to_json()
    if name == "strict_mcmc_law":
        model, obs, full = _pinned_law()
        return strict_cf_check(model, full, obs, {"S": 1}, {"S": 0}, _PIN_CFG,
                               draws=40, max_records=8).to_json()
    if name == "path_held":
        model = _admissions_model()
        data = ancestral_sample(model, 300, seed=1)
        reader = linear_predictor(model, manifest_for(model, observables=("D",),
                                                      include_protected=True,
                                                      whitelist=("D",)),
                                  {"D": 1.0, "A": 0.5})
        return path_cf_test(model, reader, data, [["A", "Y"]], {"A": 1}, {"A": 0},
                            draws=30, max_records=8).to_json()
    if name == "path_mcmc_law":
        model, obs, full = _pinned_law()
        return path_cf_test(model, full, obs, [["R", "GPA"]], {"R": 1}, {"R": 0},
                            _PIN_CFG, draws=40, max_records=6).to_json()
    if name == "suff_enumeration":
        model, _ = loan(n=1, seed=0)
        return prob_sufficiency(model, _reader(model, {"Employed": 1.0}),
                                {"A": 1, "Employed": 0}, 0.0, {"A": 0})
    long_chain = McmcConfig(chains=1, burn_in=60, kept=100, thin=1, seed=2)
    if name == "suff_pinned_exact":
        model, _ = _pinned_chain()
        return prob_sufficiency(model, _reader(model, {"X": 0.5}, intercept=0.1),
                                {"A": 1, "X": 0.7}, 0.45, {"A": 0},
                                McmcConfig(chains=1, kept=200, seed=2), tol=0.4)
    if name == "suff_pinned_mcmc":
        model, obs, _ = _pinned_law()
        record = {k: obs.record(0)[k] for k in ("R", "S", "GPA", "LSAT")}
        return prob_sufficiency(model, _reader(model, {"GPA": 1.0}), record,
                                record["GPA"], {"R": 0}, long_chain, tol=1.5)
    if name == "suff_pinned_string":
        model = _string_model()
        return prob_sufficiency(model, _reader(model, {"X": 1.0}),
                                {"A": "m", "B": 1.0, "X": 0.4}, 0.4, {"A": "f"},
                                long_chain, tol=1.0)
    if name == "suff_abduction_exact":
        model, _ = _pinned_chain()
        return prob_sufficiency(model, _reader(model, {"U": 1.0, "X": 0.5}, ("U",)),
                                {"A": 1, "X": 0.7}, 0.3, {"A": 0},
                                McmcConfig(chains=1, kept=200, seed=2), tol=0.4)
    if name == "suff_abduction_mcmc":
        model, obs, _ = _pinned_law()
        record = {k: obs.record(0)[k] for k in ("R", "S", "GPA", "LSAT")}
        return prob_sufficiency(model, _reader(model, {"K": 1.0, "GPA": 0.5}, ("K",)),
                                record, 0.4, {"R": 0}, long_chain, tol=1.5)
    if name == "learning_exact":
        model, obs = _pinned_chain()
        config = McmcConfig(chains=1, kept=20, seed=1)
        predictor = fair_learning(obs, model, manifest_for(model, backgrounds=("U",)),
                                  config=config)
        preds = fair_predict(predictor, model, obs.take(np.arange(50)), config)
        return np.concatenate([predictor.weights, preds])
    if name == "learning_mcmc":
        model, obs, _ = _pinned_law(n=80, seed=5)
        config = McmcConfig(chains=1, burn_in=40, kept=10, thin=2, seed=2)
        predictor = fair_learning(obs, model, manifest_for(model, backgrounds=("K",)),
                                  config=config)
        return np.concatenate([predictor.weights, fair_predict(predictor, model, obs, config)])
    if name == "ace_exact":
        model, _ = _pinned_chain()
        return ace(model, _reader(model, {"U": 1.0, "X": 0.5}, ("U",)), {"X": 1.0},
                   {"A": 1}, {"A": 0}, n_draws=500)
    if name == "ace_exact_string":
        model = _string_model()
        return ace(model, _reader(model, {"X": 1.0}), {"A": "m"}, {"B": 1.0}, {"B": 0.0},
                   n_draws=500)
    if name == "ace_rejection":
        model, _ = law_school(n=1, seed=0)
        return ace(model, _reader(model, {"GPA": 1.0}), {"LSAT": 3.0, "S": 1},
                   {"R": 1}, {"R": 0}, n_draws=4000, config=McmcConfig(seed=3))
    if name == "ace_rejection_string":
        model = _string_model()
        return ace(model, _reader(model, {"Y": 1.0}), {"A": "m", "B": 1.0},
                   {"X": 1.0}, {"X": 0.0}, n_draws=2000)
    if name == "additive_fair_fit":
        model, obs, _ = _pinned_law(n=500, seed=6)
        predictor = additive_fair_fit(obs, model, "FYA")
        return np.append(predictor.weights, predictor.diagnostics["residual_std"])
    if name == "group_gaps_latent":
        model, obs = _pinned_chain()
        config = McmcConfig(chains=1, kept=20, seed=1)
        predictor = fair_learning(obs, model, manifest_for(model, backgrounds=("U",)),
                                  config=config)
        return group_gaps(predictor, obs, "Y", {"A": 1}, {"A": 0}, model=model,
                          config=config)
    model, data = loan(n=400, seed=7)
    obs = observed_only(model, data)
    logistic = baseline_fit(obs, "unaware", "Y", head="logistic", protected=("A",))
    return group_gaps(logistic, obs, "Y", {"A": 1}, {"A": 0})


# digests of audit and learning outputs across routes (exact, MCMC,
# enumeration, rejection) and value kinds (numeric, str); the steps shared
# between abduction and the predictor must reproduce them byte for byte
AUDIT_DIGESTS = {
    "ace_exact": "f2ab802659a78201",
    "ace_exact_string": "8422fc83c3365e1e",
    "ace_rejection": "e8f6cb21d652947f",
    "ace_rejection_string": "8ddcf62aa8c3e193",
    "additive_fair_fit": "7c7233269747fca7",
    "cf_exact": "3f06e7661ddf8844",
    "cf_mcmc_law": "5b8dcb60d6a01040",
    "cf_mcmc_string": "86142d0a33e2dc59",
    "group_gaps_latent": "1e880b736ef6d74c",
    "group_gaps_logistic": "6876cfba927a203e",
    "learning_exact": "9e6a72dac9d10371",
    "learning_mcmc": "ee1b3092c13838fb",
    "path_held": "f2d813b3d2287964",
    "path_mcmc_law": "4a78612628dcf1ff",
    "strict_exact": "ebccd5f8f8896494",
    "strict_mcmc_law": "a5fc17d854227dfa",
    "suff_abduction_exact": "b21c84a6d3d5f6b1",
    "suff_abduction_mcmc": "fd3c7baad54e132e",
    "suff_enumeration": "fcd9b454d2360c6f",
    "suff_pinned_exact": "2af976c3e03e4d76",
    "suff_pinned_mcmc": "c1db6aa0386fe997",
    "suff_pinned_string": "4a25127c2721ffd9",
}


@pytest.mark.digest
@pytest.mark.parametrize("name", sorted(AUDIT_DIGESTS))
def test_audit_outputs_are_byte_identical(name):
    out = _audit_outputs(name)
    if isinstance(out, np.ndarray):
        got = digest(out)
    else:  # JSON floats are shortest round-trip reprs, so this is exact
        got = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]
    assert got == AUDIT_DIGESTS[name]


# ---------------------------------------------------------------------------
# the audit's forward pass evaluates only what the predictor reads


def _overflowing_child_model() -> CausalModel:
    """X = A + U observed; Z, a Poisson child of X with rate exp(800 + X), overflows."""
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, (-1.0, 1.0)),
                   Variable("U", Role.BACKGROUND),
                   Variable("X", Role.OBSERVED),
                   Variable("Z", Role.OBSERVED)),
        equations=(StructuralEquation("X", ("A", "U"), LinearGaussian(0.0, (1.0, 1.0), 0.0)),
                   StructuralEquation("Z", ("X",), PoissonLogLink(800.0, (1.0,)))),
        priors={"A": CategoricalPrior((-1.0, 1.0), (0.5, 0.5)), "U": NormalPrior(0.0, 1.0)})


@pytest.mark.parametrize("audit", ["cf", "strict", "path", "ps_pinned", "ps_abduction"])
def test_audits_skip_an_unread_descendant_that_cannot_be_evaluated(audit):
    # evaluating Z raises NonFiniteDensity; the predictor reads U (or X) only,
    # so the forward pass leaves Z out and the audit answers
    model = _overflowing_child_model()
    gen = np.random.default_rng(0)
    a, u = gen.choice([-1.0, 1.0], 20), gen.normal(size=20)
    data = Dataset(("A", "X"), {"A": a, "X": a + u})
    predictor = linear_predictor(model, manifest_for(model, backgrounds=("U",)), {"U": 1.0})
    with pytest.raises(NonFiniteDensity), np.errstate(over="ignore"):
        forward_eval(model, {"A": a, "U": u}, 20, seed=0)
    if audit.startswith("ps"):
        # the record pins U = 0.3; under do(A = -1), X moves to -0.7 and U stays
        if audit == "ps_pinned":
            predictor, y, moved = _reader(model, {"X": 1.0}), 1.3, 1.0
        else:
            predictor, y, moved = _reader(model, {"U": 1.0}, ("U",)), 0.3, 0.0
        result = prob_sufficiency(model, predictor, {"A": 1.0, "X": 1.3}, y, A_LO,
                                  McmcConfig(chains=1, kept=50, seed=0))
        assert (result["method"], result["probability"]) == ("abduction", moved)
        return
    kwargs = {"config": McmcConfig(seed=0), "draws": 50, "max_records": 5}
    if audit == "cf":
        report = cf_fairness_test(model, predictor, data, A_HI, A_LO, **kwargs)
    elif audit == "strict":
        report = strict_cf_check(model, predictor, data, A_HI, A_LO, **kwargs)
    else:
        report = path_cf_test(model, predictor, data, [("A", "X")], A_HI, A_LO, **kwargs)
    assert report.aggregate == 0.0
    assert report.passed


@pytest.mark.parametrize("route", ["exact", "rejection"])
def test_ace_skips_an_unread_descendant_that_cannot_be_evaluated(route):
    if route == "exact":
        # X = A + U without noise, so X = 0.5 pins U = 0.5 - a under do(A = a)
        model = _overflowing_child_model()
        predictor = linear_predictor(model, manifest_for(model, backgrounds=("U",)), {"U": 1.0})
        result = ace(model, predictor, {"X": 0.5}, A_HI, A_LO, n_draws=200)
        assert result["method"] == "exact"
        assert (result["mean_a"], result["mean_a_prime"], result["ace"]) == (-0.5, 1.5, -2.0)
        return
    # LSAT is Poisson, so ace rejects simulated rows; Z overflows as in
    # _overflowing_child_model and the GPA reader's answer is the one without it
    model, _ = law_school(n=1, seed=0)
    with_z = _with_child(model, Variable("Z", Role.OBSERVED),
                         StructuralEquation("Z", ("GPA",), PoissonLogLink(800.0, (1.0,))))
    with pytest.raises(NonFiniteDensity), np.errstate(over="ignore"):
        ancestral_sample(with_z, 10, seed=0)
    result = [ace(m, _reader(m, {"GPA": 1.0}), {"LSAT": 3.0}, {"R": 1}, {"R": 0},
                  n_draws=4000, config=McmcConfig(seed=3)) for m in (model, with_z)]
    assert result[0]["method"] == "rejection"
    assert result[1] == result[0]
