import numpy as np
import pytest

from cfair import (
    CategoricalPrior,
    CausalModel,
    InterveneOnBackground,
    LinearGaussian,
    NormalPrior,
    PoissonLogLink,
    Role,
    ScenarioParams,
    StructuralEquation,
    UnattainableValue,
    Variable,
    ancestral_sample,
    build_model,
    descendants,
    intervene,
    load_model,
    model_from_json,
    model_to_json,
    non_descendants,
    save_model,
    validate_model,
)
from helpers import (chain_model, loan, model_signature, red_car,
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


def test_parentless_poisson_mean():
    m = CausalModel(
        variables=(Variable("N", Role.OBSERVED),),
        equations=(StructuralEquation("N", (), PoissonLogLink(0.0, ())),),
        priors={})
    data = ancestral_sample(m, 1_000_000, seed=5)
    assert 0.99 <= float(data.column("N").mean()) <= 1.01
    assert data.column("N").dtype.kind == "i"


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
