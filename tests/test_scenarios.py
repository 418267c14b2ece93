import numpy as np
import pytest

from cfair import (
    DeterministicTable,
    DimensionMismatch,
    LinearGaussian,
    PoissonLogLink,
    SCENARIO_KINDS,
    ScenarioParams,
    UnsupportedScenario,
    ancestral_sample,
    build_model,
    design_matrix,
    generate,
    ols_fit,
    oracle,
)
from helpers import loan, red_car


def test_scenario_catalog():
    assert SCENARIO_KINDS == ("high_crime", "law_school", "loan", "red_car",
                              "university")
    for kind in SCENARIO_KINDS:
        model, data = generate(ScenarioParams(kind=kind, n=50, seed=1))
        assert data.n == 50
        assert set(data.columns) == {v.name for v in model.variables}


def test_params_are_frozen_and_merged():
    p = ScenarioParams(kind="red_car", params={"alpha": 2.0})
    assert p["alpha"] == 2.0
    assert p["beta"] == 1.0  # default retained
    with pytest.raises(Exception):
        p.n = 7


def test_param_validation():
    with pytest.raises(UnsupportedScenario):
        ScenarioParams(kind="credit")
    with pytest.raises(DimensionMismatch):
        ScenarioParams(kind="red_car", params={"delta": 1.0})
    with pytest.raises(DimensionMismatch):
        ScenarioParams(kind="red_car", params={"v_u": 0.0})
    with pytest.raises(DimensionMismatch):
        ScenarioParams(kind="law_school", params={"sigma_g": -0.5})
    with pytest.raises(DimensionMismatch):
        ScenarioParams(kind="loan", params={"p_p": 1.5})
    with pytest.raises(DimensionMismatch):  # checked when the model is built
        build_model(ScenarioParams(kind="law_school", params={"race_arity": 1}))
    # a negative row count once reached numpy as "negative dimensions"
    with pytest.raises(DimensionMismatch, match="n must be at least 0, got -3"):
        ScenarioParams(kind="red_car", n=-3)
    with pytest.raises(DimensionMismatch, match="row count must be at least 0, got -1"):
        ancestral_sample(build_model(ScenarioParams(kind="red_car")), -1, seed=0)
    # a fractional row count once failed in forward_eval, a fractional seed
    # once keyed the draws of its integer part, and a bool passed as 0 or 1
    for field, value in (("n", 2.5), ("n", True), ("n", "3"), ("seed", 1.5), ("seed", "x"),
                         ("seed", False)):
        with pytest.raises(DimensionMismatch, match=f"{field} must be an integer, got {value!r}"):
            ScenarioParams(kind="red_car", **{field: value})
    for n in (2.5, True):
        with pytest.raises(DimensionMismatch, match=f"row count must be an integer, got {n!r}"):
            ancestral_sample(build_model(ScenarioParams(kind="red_car")), n, seed=0)
    # numpy integers pass
    params = ScenarioParams(kind="red_car", n=np.int32(3), seed=np.uint64(7))
    assert ancestral_sample(build_model(params), np.int64(3), seed=params.seed).n == 3


# ---------------------------------------------------------------------------
# generated moments


def test_red_car_moments_match_construction():
    model, data = red_car(n=1_000_000, seed=3)
    a, x, y = data.numeric("A"), data.numeric("X"), data.numeric("Y")
    assert abs(np.var(a) - 1.0) <= 0.01
    assert abs(np.var(x) - 2.0) <= 0.01  # v_x = alpha^2 v_a + beta^2 v_u
    assert abs(np.cov(x, y)[0, 1] / np.var(x) - 0.5) <= 0.01
    assert abs(np.corrcoef(a, data.numeric("U"))[0, 1]) <= 0.01


def test_law_school_pair_weights_fold_into_intercepts():
    model = build_model(ScenarioParams(kind="law_school"))
    eq = model.equation_map
    gpa = eq["GPA"].family
    assert isinstance(gpa, LinearGaussian)
    assert gpa.intercept == pytest.approx(0.93)  # b_g + w_gs[0]
    assert dict(zip(eq["GPA"].parents, gpa.weights))["S"] == pytest.approx(0.13)
    lsat = eq["LSAT"].family
    assert isinstance(lsat, PoissonLogLink)
    assert lsat.intercept == pytest.approx(1.1)
    assert dict(zip(eq["LSAT"].parents, lsat.weights))["S"] == pytest.approx(0.0)
    assert dict(zip(eq["LSAT"].parents, lsat.weights))["R"] == pytest.approx(0.0)
    fya = eq["FYA"].family
    assert fya.intercept == pytest.approx(0.0)
    assert dict(zip(eq["FYA"].parents, fya.weights))["S"] == pytest.approx(0.1)
    assert dict(zip(eq["FYA"].parents, fya.weights))["R"] == pytest.approx(1.2)


def test_loan_employment_flips_only_for_protected_defaulters():
    model, _ = loan(n=1)
    table = model.equation_map["Employed"].family
    assert isinstance(table, DeterministicTable)
    mapping = dict(table.entries)
    for p in (0, 1):
        for q in (0, 1):
            flips = mapping[(1, p, q)] != mapping[(0, p, q)]
            assert flips == ((p, q) == (1, 1))


def test_loan_stratum_frequencies():
    p_a, p_p, p_q = 0.3, 0.6, 0.7
    model, data = loan(n=100_000, seed=5, p_a=p_a, p_p=p_p, p_q=p_q)
    n = data.n
    for name, prob in (("A", p_a), ("P", p_p), ("Q", p_q)):
        freq = float(np.mean(data.numeric(name)))
        se = np.sqrt(prob * (1 - prob) / n)
        assert abs(freq - prob) <= 4 * se
    a, p, q, e = (data.numeric(c) for c in ("A", "P", "Q", "Employed"))
    assert np.array_equal(e, ((q == 1) & ~((p == 1) & (a == 1))).astype(e.dtype))
    y = data.numeric("Y")
    for level in (0, 1):
        want = 1.0 / (1.0 + np.exp(-(-1.0 + 2.0 * level)))  # default head
        got = float(np.mean(y[e == level]))
        se = np.sqrt(want * (1 - want) / max((e == level).sum(), 1))
        assert abs(got - want) <= 4 * se


# ---------------------------------------------------------------------------
# closed-form oracle


def test_oracle_default_red_car_values():
    bundle = oracle(ScenarioParams(kind="red_car"))
    assert bundle.values["unaware_slope"] == pytest.approx(0.5)
    assert bundle.values["full_weight_x"] == pytest.approx(1.0)
    assert bundle.values["full_weight_a"] == pytest.approx(-1.0)
    assert bundle.values["var_x"] == pytest.approx(2.0)
    assert bundle.verdicts == {"full": "fair", "unaware": "unfair",
                               "fair_learning": "fair", "fair_add": "fair"}
    assert bundle.fair_weights["U"] == pytest.approx(1.0)


def test_oracle_flags_any_direct_or_mediated_effect():
    crime = oracle(ScenarioParams(kind="high_crime", params={"theta": 0.4}))
    assert crime.verdicts["full"] == "unfair"
    assert crime.values["full_coef_a"] == pytest.approx(0.4)
    uni = oracle(ScenarioParams(kind="university", params={"eta": 0.9}))
    assert uni.verdicts["full"] == "unfair"
    assert uni.values["full_coef_a"] == pytest.approx(0.9)
    # switching the extra edge off reduces both scenarios to the first one
    base = oracle(ScenarioParams(kind="red_car"))
    for kind, knob in (("high_crime", "theta"), ("university", "eta")):
        off = oracle(ScenarioParams(kind=kind, params={knob: 0.0}))
        assert off.verdicts == base.verdicts
        assert off.values == base.values


def test_oracle_refuses_non_linear_scenarios():
    for kind in ("law_school", "loan"):
        with pytest.raises(UnsupportedScenario):
            oracle(ScenarioParams(kind=kind))


def test_oracle_matches_empirical_regressions():
    params = ScenarioParams(kind="high_crime",
                            params={"alpha": 2.0, "beta": 0.5, "gamma": 1.5,
                                    "theta": 0.7, "v_a": 0.5, "v_u": 2.0},
                            n=1_000_000, seed=7)
    bundle = oracle(params)
    model, data = generate(params)
    y = data.numeric("Y")
    full_design, _ = design_matrix(data, ("X", "A"))
    full = ols_fit(full_design, y)
    assert abs(full.coefficient("X") - bundle.values["full_weight_x"]) <= 0.01
    assert abs(full.coefficient("A") - bundle.values["full_weight_a"]) <= 0.01
    unaware_design, _ = design_matrix(data, ("X",))
    unaware = ols_fit(unaware_design, y)
    assert abs(unaware.coefficient("X") - bundle.values["unaware_slope"]) <= 0.01
    assert abs(np.var(data.numeric("X")) - bundle.values["var_x"]) <= 0.03
