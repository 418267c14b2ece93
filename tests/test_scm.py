import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtr

import cfair
from cfair import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    DeterministicTable,
    DimensionMismatch,
    InterveneOnBackground,
    LinearGaussian,
    McmcConfig,
    NonFiniteDensity,
    NormalPrior,
    PoissonLogLink,
    Role,
    ScenarioParams,
    StructuralEquation,
    UnattainableValue,
    Variable,
    ancestral_sample,
    baseline_fit,
    build_model,
    cf_fairness_test,
    descendants,
    forward_eval,
    intervene,
    load_model,
    model_from_json,
    model_to_json,
    non_descendants,
    save_model,
    validate_model,
)
from cfair.scm import _POISSON_SEARCH_MAX_RATE, _poisson_quantile
from helpers import (chain_model, digest, law_school, loan, model_signature, red_car,
                     split_outcome_model)


def _codes(result):
    return {issue.code for issue in result.issues}


# ---------------------------------------------------------------------------
# validation


def test_topological_order_backgrounds_first():
    result = validate_model(chain_model())
    assert result.ok
    assert result.topological_order == ("U", "A", "X", "Y")


def _with_parented_protected(parent: str) -> CausalModel:
    # A -> X <- U -> Y, then make A itself a child of `parent`
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED),
                   Variable("X", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME),
                   Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("X", ("A", "U"),
                                      LinearGaussian(0.0, (1.0, 1.0), 0.0)),
                   StructuralEquation("Y", ("U",),
                                      LinearGaussian(0.0, (1.0,), 0.0)),
                   StructuralEquation("A", (parent,),
                                      LinearGaussian(0.0, (1.0,), 0.0)),),
        priors={"U": NormalPrior(0.0, 1.0)})


def test_back_edge_into_nondescendant_root_is_acyclic():
    # A's only downstream variable is X, so an edge Y -> A closes no loop
    result = validate_model(_with_parented_protected("Y"))
    assert "CycleDetected" not in _codes(result)
    assert result.ok


def test_cycle_detected_when_edge_closes_a_loop():
    result = validate_model(_with_parented_protected("X"))
    assert not result.ok
    assert "CycleDetected" in _codes(result)
    assert result.topological_order == ()


def test_weight_arity_mismatch_reported():
    m = CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(0, 1)),
                   Variable("X", Role.OBSERVED),
                   Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("X", ("A", "U"),
                                      LinearGaussian(0.0, (1.0,), 0.0)),),
        priors={"A": CategoricalPrior((0, 1), (0.5, 0.5)),
                "U": NormalPrior(0.0, 1.0)})
    result = validate_model(m)
    assert not result.ok
    assert "WeightArityMismatch" in _codes(result)


def test_background_with_equation_and_missing_equation_flagged():
    m = CausalModel(
        variables=(Variable("X", Role.OBSERVED),
                   Variable("Z", Role.OBSERVED),
                   Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("U", ("X",),
                                      LinearGaussian(0.0, (1.0,), 0.0)),
                   StructuralEquation("X", ("U",),
                                      LinearGaussian(0.0, (1.0,), 1.0)),),
        priors={"U": NormalPrior(0.0, 1.0)})
    codes = _codes(validate_model(m))
    assert "BackgroundHasParents" in codes
    assert "MissingEquation" in codes  # Z has neither equation nor prior


def test_dangling_parent_flagged():
    m = CausalModel(
        variables=(Variable("X", Role.OBSERVED), Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("X", ("GHOST",),
                                      LinearGaussian(0.0, (1.0,), 1.0)),),
        priors={"U": NormalPrior(0.0, 1.0)})
    assert "DanglingParent" in _codes(validate_model(m))


# ---------------------------------------------------------------------------
# sampling


def test_variance_of_mixed_column_matches_population():
    model, data = red_car(n=1_000_000, seed=3)
    assert 1.99 <= float(np.var(data.column("X"))) <= 2.01


def test_single_row_sampling_is_deterministic():
    model = chain_model(noise=0.7)
    one = ancestral_sample(model, 1, seed=42)
    two = ancestral_sample(model, 1, seed=42)
    for c in one.columns:
        assert np.array_equal(one.column(c), two.column(c))


def _typed_columns_model() -> CausalModel:
    """Categorical priors and lookup tables whose values are all ints, all
    numbers, strings, or numbers mixed with strings; three constant tables."""
    background, observed = Role.BACKGROUND, Role.OBSERVED
    eq = StructuralEquation
    return CausalModel(
        variables=(Variable("PI", background, (0, 1, 2)),
                   Variable("PF", background, (0.5, 1, 2.5)),
                   Variable("PS", background, ("a", "b")),
                   Variable("PM", background, (1, "z")),
                   Variable("TI", observed, (10, 20, 30)),
                   Variable("TF", observed, (0.25, 1, 2.5)),
                   Variable("TS", observed, ("lo", "hi")),
                   Variable("TM", observed, (0, "q")),
                   Variable("CI", observed, (7,)),
                   Variable("CF", observed, (2.5,)),
                   Variable("CS", observed, ("k",)),
                   Variable("X", observed)),
        equations=(eq("TI", ("PI",), DeterministicTable({(0,): 10, (1,): 20, (2,): 30})),
                   eq("TF", ("PI",), DeterministicTable({(0,): 0.25, (1,): 1, (2,): 2.5})),
                   eq("TS", ("PS", "PI"), DeterministicTable(
                       {(c, i): "hi" if c == "b" or i == 2 else "lo"
                        for c in ("a", "b") for i in (0, 1, 2)})),
                   eq("TM", ("PS",), DeterministicTable({("a",): 0, ("b",): "q"})),
                   eq("CI", (), DeterministicTable({(): 7})),
                   eq("CF", (), DeterministicTable({(): 2.5})),
                   eq("CS", (), DeterministicTable({(): "k"})),
                   eq("X", ("PI", "PF"), LinearGaussian(0.1, (1.0, -0.5), 1.0))),
        priors={"PI": CategoricalPrior((0, 1, 2), (0.2, 0.5, 0.3)),
                "PF": CategoricalPrior((0.5, 1, 2.5), (0.3, 0.3, 0.4)),
                "PS": CategoricalPrior(("a", "b"), (0.6, 0.4)),
                "PM": CategoricalPrior((1, "z"), (0.5, 0.5))})


# (dtype, digest) per column, recorded while priors and tables each spelled
# the int64 / float64 / object rule; the one shared rule must reproduce them
TYPED_COLUMN_DIGESTS = {
    "PI": ("int64", "7aaa302e19ec7952"),
    "PF": ("float64", "dbb54d7839162900"),
    "PS": ("object", "fcef84144310472a"),
    "PM": ("object", "c70068c34fb52cf6"),
    "TI": ("int64", "1bb04b7428c8bf55"),
    "TF": ("float64", "52d56a2ae02f0475"),
    "TS": ("object", "a87cd69147fc64cb"),
    "TM": ("object", "46d42793a43946cc"),
    "CI": ("int64", "174ebbb2a8dd5229"),
    "CF": ("float64", "f2eff9fa86c8b34b"),
    "CS": ("object", "2e66b74c8ee42e1a"),
    "X": ("float64", "f059bb65c8d620f4"),
}


@pytest.mark.digest
def test_prior_and_table_columns_are_byte_identical():
    data = ancestral_sample(_typed_columns_model(), 40, seed=9)
    got = {c: (str(data.column(c).dtype), digest(data.column(c))) for c in data.columns}
    assert got == TYPED_COLUMN_DIGESTS


def test_parentless_poisson_mean():
    m = CausalModel(
        variables=(Variable("N", Role.OBSERVED),),
        equations=(StructuralEquation("N", (), PoissonLogLink(0.0, ())),),
        priors={})
    data = ancestral_sample(m, 1_000_000, seed=5)
    assert 0.99 <= float(data.column("N").mean()) <= 1.01
    assert data.column("N").dtype.kind == "i"


def _poisson_outputs(name):
    if name.startswith("lsat_seed"):
        model = build_model(ScenarioParams(kind="law_school"))
        return ancestral_sample(model, 5000, seed=int(name[len("lsat_seed"):])).column("LSAT")
    if name == "forward_eval_do_s":
        model, data = law_school(n=3000, seed=8)
        out = forward_eval(intervene(model, {"R": 1, "S": 0}), {"K": data.column("K")},
                           3000, seed=21, salt=5)
        return np.column_stack([out["GPA"], out["LSAT"], out["FYA"]])
    model, data = law_school(n=400, seed=2)
    observed = data.drop(model.background)
    predictor = baseline_fit(observed, "full", "FYA", protected=model.protected)
    report = cf_fairness_test(model, predictor, observed, {"S": 1}, {"S": 0},
                              McmcConfig(chains=2, burn_in=60, kept=20, thin=2, seed=3),
                              draws=200, max_records=12)
    return np.array([[r["mean_factual"], r["mean_counterfactual"]]
                     for r in report.per_record])


# digests of everything drawn through the Poisson inverse CDF, recorded with
# scipy.stats.poisson.ppf; the quantile search must reproduce them. The
# audit's entry was re-recorded when its subsample was keyed by record id
POISSON_DIGESTS = {
    "lsat_seed0": "4e61b483bc0e8d63",
    "lsat_seed7": "53b9404927c2c3bb",
    "forward_eval_do_s": "5d8a30eec2c48267",
    "cf_fairness_test_s": "827f287505f7a188",
}


@pytest.mark.digest
@pytest.mark.parametrize("name", sorted(POISSON_DIGESTS))
def test_poisson_draws_are_byte_identical(name):
    assert digest(_poisson_outputs(name)) == POISSON_DIGESTS[name]


def _assert_quantiles_match_scipy(u, lam):
    u, lam = (np.ascontiguousarray(a, dtype=np.float64) for a in np.broadcast_arrays(u, lam))
    assert np.all((u > 0.0) & (u < 1.0))
    np.testing.assert_array_equal(_poisson_quantile(u, lam), scipy.stats.poisson.ppf(u, lam))


def test_poisson_quantile_matches_scipy_on_random_draws():
    gen = np.random.default_rng(0)
    lam = 10.0 ** gen.uniform(-3.0, np.log10(_POISSON_SEARCH_MAX_RATE) + 1.0, 60_000)
    _assert_quantiles_match_scipy(gen.uniform(2.0 ** -54, 1.0, lam.size), lam)


def test_poisson_quantile_matches_scipy_in_the_tails():
    gen = np.random.default_rng(1)
    lam = 10.0 ** gen.uniform(-3.0, np.log10(_POISSON_SEARCH_MAX_RATE) + 1.0, 20_000)
    tail = 10.0 ** gen.uniform(-16.0, -9.0, lam.size)
    _assert_quantiles_match_scipy(tail, lam)
    _assert_quantiles_match_scipy(1.0 - tail, lam)
    for u in (2.0 ** -54, 2.0 ** -53, 1.0 - 2.0 ** -53):
        _assert_quantiles_match_scipy(u, lam)


def test_poisson_quantile_matches_scipy_at_cdf_steps():
    # u = pdtr(k, lam) and its float neighbours, where scipy's own root-find
    # rounding decides between k and k + 1
    gen = np.random.default_rng(2)
    lam = 10.0 ** gen.uniform(-1.0, np.log10(_POISSON_SEARCH_MAX_RATE) + 0.5, 20_000)
    k = np.maximum(np.floor(lam + np.sqrt(lam) * gen.normal(0.0, 2.0, lam.size)), 0.0)
    step = pdtr(k, lam)
    for u in (np.nextafter(step, 0.0), step, np.nextafter(step, 1.0)):
        inside = (u > 0.0) & (u < 1.0)
        _assert_quantiles_match_scipy(u[inside], lam[inside])


@pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-310, 1e-300])
def test_poisson_quantile_matches_scipy_at_zero_and_subnormal_rates(lam):
    u = np.random.default_rng(3).uniform(2.0 ** -54, 1.0, 2000)
    _assert_quantiles_match_scipy(np.concatenate([u, [2.0 ** -54, 1.0 - 2.0 ** -53]]), lam)


@settings(max_examples=300)
@given(log_lam=st.floats(-3.0, np.log10(_POISSON_SEARCH_MAX_RATE) + 1.0),
       z=st.floats(-9.0, 9.0), ulps=st.integers(-2, 2),
       u=st.floats(2.0 ** -54, 1.0 - 2.0 ** -53))
def test_poisson_quantile_matches_scipy_property(log_lam, z, ulps, u):
    lam = 10.0 ** log_lam
    near = pdtr(max(np.floor(lam + np.sqrt(lam) * z), 0.0), lam)
    for _ in range(abs(ulps)):
        near = np.nextafter(near, np.sign(ulps) * 2.0)
    points = [u] + ([near] if 0.0 < near < 1.0 else [])
    _assert_quantiles_match_scipy(np.array(points), lam)


def test_poisson_quantile_beyond_the_search_bound_is_scipys():
    # scipy's formula, NaN included: its root-find fails at 0.3 and rate 1e12
    _assert_quantiles_match_scipy(np.array([0.3, 0.5, 0.9]), np.array([1e5, 1e9, 1e12]))


def test_non_finite_poisson_quantile_raises():
    # exp(28) is about 1.4e12: the quantile is NaN, which used to cast to INT64_MIN
    m = CausalModel(
        variables=(Variable("N", Role.OBSERVED),),
        equations=(StructuralEquation("N", (), PoissonLogLink(28.0, ())),),
        priors={})
    with pytest.raises(NonFiniteDensity):
        ancestral_sample(m, 10, seed=0)


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, cfair; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cfair.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_seed_determinism_and_sensitivity():
    model = chain_model(noise=0.5)
    a = ancestral_sample(model, 128, seed=9)
    b = ancestral_sample(model, 128, seed=9)
    c = ancestral_sample(model, 128, seed=10)
    assert all(np.array_equal(a.column(k), b.column(k)) for k in a.columns)
    assert not np.array_equal(a.column("X"), c.column("X"))


def test_conditional_moments_match_equations():
    model = chain_model(noise=0.5)
    data = ancestral_sample(model, 1_000_000, seed=1)
    resid = data.column("X") - data.column("A") - data.column("U")
    se = 0.5 / np.sqrt(data.n)
    assert abs(resid.mean()) <= 3 * se
    assert abs(resid.std() - 0.5) <= 0.01


def test_column_order_is_topological():
    model = chain_model(noise=0.5)
    data = ancestral_sample(model, 4, seed=0)
    assert data.columns == ("U", "A", "X", "Y")


def _every_family_model() -> CausalModel:
    """Normal and categorical priors feeding one equation of each family."""
    background, observed = Role.BACKGROUND, Role.OBSERVED
    eq = StructuralEquation
    return CausalModel(
        variables=(Variable("U", background),
                   Variable("C", background, ("a", "b")),
                   Variable("X", observed),
                   Variable("B", observed, (0, 1)),
                   Variable("N", observed),
                   Variable("T", observed, ("lo", "mid", "hi"))),
        equations=(eq("X", ("U",), LinearGaussian(0.2, (1.0,), 0.5)),
                   eq("B", ("X",), BernoulliLogit(0.1, (1.5,))),
                   eq("N", ("X",), PoissonLogLink(1.0, (0.8,))),
                   eq("T", ("B", "C"), DeterministicTable(
                       {(0, "a"): "lo", (0, "b"): "mid", (1, "a"): "mid",
                        (1, "b"): "hi"}))),
        priors={"U": NormalPrior(0.0, 1.0), "C": CategoricalPrior(("a", "b"), (0.3, 0.7))})


# row keys of any integer kind, a list of Python ints included, key alike
@pytest.mark.parametrize("key_type", [int, np.int64, np.uint64])
def test_forward_eval_over_a_row_block_equals_those_rows_of_the_whole_pass(key_type):
    model = _every_family_model()
    whole = forward_eval(model, {}, 500, seed=5, salt=3)
    given_u = {"U": whole["U"]}
    from_u = forward_eval(model, given_u, 500, seed=5, salt=3)
    for r0, r1 in ((0, 1), (0, 500), (7, 8), (137, 411), (499, 500)):
        rows = [key_type(r) for r in range(r0, r1)]
        block = forward_eval(model, {}, r1 - r0, seed=5, salt=3, rows=rows)
        block_u = forward_eval(model, {"U": whole["U"][r0:r1]}, r1 - r0, seed=5, salt=3,
                               rows=rows)
        for got, want in ((block, whole), (block_u, from_u)):
            assert list(got) == list(want)
            for name, col in want.items():
                assert got[name].dtype == col.dtype, name
                assert digest(got[name]) == digest(col[r0:r1]), name
    assert set(whole["T"].tolist()) == {"lo", "mid", "hi"}
    assert whole["N"].dtype == np.int64 and whole["B"].dtype == np.int64
    with pytest.raises(DimensionMismatch, match="rows must hold 3 keys"):
        forward_eval(model, {}, 3, seed=5, rows=[0, 1])  # would broadcast one key


# ---------------------------------------------------------------------------
# interventions


def test_intervention_pins_value_and_severs_dependence():
    model, _ = red_car(n=10)
    pinned = intervene(model, {"A": 1.0})
    data = ancestral_sample(pinned, 1000, seed=2)
    assert np.all(data.column("A") == 1.0)
    assert float(np.var(data.column("A"))) == 0.0


def test_downstream_independence_after_surgery():
    model = chain_model(noise=0.5)
    cut = intervene(model, {"X": 0.0})
    data = ancestral_sample(cut, 1_000_000, seed=7)
    corr = np.corrcoef(data.column("A"), data.column("Y"))[0, 1]
    assert abs(corr) <= 0.01


def test_intervene_on_background_rejected():
    with pytest.raises(InterveneOnBackground):
        intervene(chain_model(), {"U": 0.0})


def test_intervene_outside_domain_rejected():
    with pytest.raises(UnattainableValue):
        intervene(chain_model(), {"A": 7})


def test_intervene_idempotent_and_commutes():
    model = chain_model(noise=0.5)
    once = intervene(model, {"X": 1.0})
    twice = intervene(once, {"X": 1.0})
    assert model_signature(once) == model_signature(twice)
    ab = intervene(intervene(model, {"X": 1.0}), {"Y": 2.0})
    ba = intervene(intervene(model, {"Y": 2.0}), {"X": 1.0})
    assert model_signature(ab) == model_signature(ba)


# ---------------------------------------------------------------------------
# descendant queries


def test_non_descendants_split_graph():
    assert non_descendants(split_outcome_model(), {"A"}) == frozenset({"U", "Y"})


def test_non_descendants_loan_latents():
    model, _ = loan(n=1)
    assert non_descendants(model, {"A"}) == frozenset({"P", "Q"})


def test_non_descendants_of_nothing_is_everything():
    model = chain_model()
    assert non_descendants(model, set()) == frozenset({"A", "X", "Y", "U"})


def test_descendants_partition():
    for model in (chain_model(), split_outcome_model(), loan(n=1)[0]):
        full = {v.name for v in model.variables}
        down = descendants(model, {model.protected[0]})
        up = non_descendants(model, {model.protected[0]})
        assert down | up == full
        assert down & up == frozenset()


# ---------------------------------------------------------------------------
# serialization


def test_model_json_round_trip():
    for model in (chain_model(noise=0.3), loan(n=1)[0],
                  build_model(ScenarioParams(kind="law_school"))):
        blob = model_to_json(model)
        back = model_from_json(blob)
        assert model_to_json(back) == blob


def test_model_file_round_trip(tmp_path):
    model = split_outcome_model(noise=0.2)
    path = tmp_path / "model.json"
    save_model(model, path, fit_meta={"note": "unit"})
    again = load_model(path)
    assert model_signature(again) == model_signature(model)
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.json"
    save_model(again, path2, fit_meta={"note": "unit"})
    assert path.read_bytes() == path2.read_bytes()
