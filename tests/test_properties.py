"""Invariants checked over randomly built linear models."""

from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from cfair import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    Dataset,
    InvalidPath,
    LinearGaussian,
    McmcConfig,
    NormalPrior,
    Role,
    ScenarioParams,
    SingularConditioning,
    StructuralEquation,
    Variable,
    ZeroPosteriorMass,
    abduct_exact,
    abduct_records,
    ancestral_sample,
    baseline_fit,
    cf_fairness_test,
    descendants,
    exact_available,
    forward_eval,
    intervene,
    ks_2sample,
    model_from_json,
    model_to_json,
    non_descendants,
    oracle,
    posterior_draw_matrix,
    strict_cf_check,
)
from cfair import counterfactual, metrics
from cfair.counterfactual import _stacked
from cfair.scm import _ancestor_closure, require_valid
from helpers import (assert_keyed_by_id, batch_se, digest, law_school,
                     linear_predictor, manifest_for, model_signature, observed_only, red_car)

_WEIGHT = st.floats(min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def linear_models(draw) -> CausalModel:
    """Random acyclic linear model: protected A, latent U, mid layer, outcome Y.

    The first mid variable always takes A as a parent, so the model is
    guaranteed to contain a protected-descendant observable.
    """
    n_mid = draw(st.integers(min_value=1, max_value=3))
    mids = [f"X{i}" for i in range(n_mid)]
    variables = [Variable("A", Role.PROTECTED, (-1.0, 1.0)),
                 Variable("U", Role.BACKGROUND)]
    variables += [Variable(m, Role.OBSERVED) for m in mids]
    variables.append(Variable("Y", Role.OUTCOME))
    equations = []
    pool = ["U", "A"]
    for i, mid in enumerate(mids):
        if i == 0:
            parents = ["A"] + draw(st.lists(st.sampled_from(["U"]), max_size=1,
                                            unique=True))
        else:
            parents = draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=len(pool), unique=True))
        weights = tuple(draw(_WEIGHT) for _ in parents)
        noise = draw(st.sampled_from((0.0, 0.3)))
        equations.append(StructuralEquation(mid, tuple(parents),
                                            LinearGaussian(0.0, weights, noise)))
        pool.append(mid)
    y_parents = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=len(pool), unique=True))
    equations.append(StructuralEquation(
        "Y", tuple(y_parents),
        LinearGaussian(0.0, tuple(draw(_WEIGHT) for _ in y_parents), 0.0)))
    return CausalModel(tuple(variables), tuple(equations),
                       {"A": CategoricalPrior((-1.0, 1.0), (0.5, 0.5)),
                        "U": NormalPrior(0.0, 1.0)})


_TARGETS = st.one_of(
    st.tuples(st.just("A"), st.sampled_from((-1.0, 1.0))),  # respects the domain
    st.tuples(st.sampled_from(("X0", "Y")), st.floats(-2, 2, allow_nan=False)))


@given(linear_models(), _TARGETS)
def test_intervention_is_idempotent(model, target):
    name, value = target
    once = intervene(model, {name: value})
    twice = intervene(once, {name: value})
    assert model_signature(once) == model_signature(twice)


@given(linear_models(), st.sampled_from((-1.0, 1.0)),
       st.floats(-2, 2, allow_nan=False))
def test_interventions_commute(model, v1, v2):
    joint = intervene(model, {"A": v1, "X0": v2})
    one_way = intervene(intervene(model, {"A": v1}), {"X0": v2})
    other_way = intervene(intervene(model, {"X0": v2}), {"A": v1})
    assert model_signature(joint) == model_signature(one_way)
    assert model_signature(one_way) == model_signature(other_way)


@given(linear_models(), st.sets(st.sampled_from(["A", "U", "X0", "Y"]),
                                min_size=1, max_size=2))
def test_descendant_split_partitions_the_graph(model, seeds):
    down = descendants(model, seeds)
    up = non_descendants(model, seeds)
    names = {v.name for v in model.variables}
    assert down | up == names
    assert down & up == set()
    assert seeds <= down


@given(linear_models())
def test_ancestors_and_descendants_are_converse(model):
    # y is an ancestor of x exactly when x descends from y; each set holds its start
    names = model.names()
    for x in names:
        up = _ancestor_closure(model, [x])
        assert x in up
        for y in names:
            down = descendants(model, y)
            assert y in down
            assert (y in up) == (x in down)


@given(linear_models(), st.integers(min_value=0, max_value=2 ** 32))
def test_sampling_is_seed_deterministic(model, seed):
    first = ancestral_sample(model, 20, seed)
    second = ancestral_sample(model, 20, seed)
    assert first.columns == second.columns
    for c in first.columns:
        assert np.array_equal(first.column(c), second.column(c))


@given(linear_models(), st.floats(-2, 2, allow_nan=False))
def test_intervened_column_is_pinned(model, value):
    data = ancestral_sample(intervene(model, {"X0": value}), 25, seed=1)
    assert np.allclose(data.numeric("X0"), value)


@given(linear_models())
def test_serialization_round_trip(model):
    assert model_signature(model_from_json(model_to_json(model))) \
        == model_signature(model)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=60),
       st.lists(st.integers(0, 5), min_size=1, max_size=60))
def test_ks_agrees_with_reference_implementation(xs, ys):
    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    assert ks_2sample(x, y) == pytest.approx(stats.ks_2samp(x, y).statistic,
                                             abs=1e-12)


@given(st.floats(0.25, 2.0), st.floats(0.25, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.0, 1.5), st.floats(-1.5, 1.5), st.sampled_from((0, 1)))
def test_oracle_decomposition_identities(alpha, beta, gamma, theta, eta, pick):
    params = {"alpha": alpha, "beta": beta, "gamma": gamma}
    if pick == 0:
        kind = "high_crime"
        params["theta"] = theta
    else:
        kind = "university"
        params["eta"] = eta
    values = oracle(ScenarioParams(kind=kind, params=params)).values
    # substituting X = alpha a + beta U into the fitted heads must reproduce
    # the (U, a) coefficients reported alongside them
    assert values["full_coef_u"] == pytest.approx(
        values["full_weight_x"] * beta, rel=1e-9, abs=1e-9)
    assert values["full_coef_a"] == pytest.approx(
        values["full_weight_x"] * alpha + values["full_weight_a"],
        rel=1e-9, abs=1e-9)
    assert values["unaware_coef_u"] == pytest.approx(
        values["unaware_slope"] * beta, rel=1e-9, abs=1e-9)
    assert values["var_x"] > 0


@settings(max_examples=10)
@given(linear_models(), st.integers(0, 100))
def test_null_flip_never_registers(model, seed):
    data = ancestral_sample(model, 30, seed=seed)
    predictor = linear_predictor(
        model, manifest_for(model, observables=tuple(
            n for n in data.columns if n.startswith("X")),
            whitelist=tuple(n for n in data.columns if n.startswith("X"))),
        {n: 1.0 for n in data.columns if n.startswith("X")})
    report = cf_fairness_test(model, predictor, data, {"A": 1.0}, {"A": 1.0},
                              config=McmcConfig(seed=seed), draws=25,
                              max_records=6)
    assert report.aggregate == 0.0
    assert report.passed


@settings(max_examples=10)
@given(linear_models(), st.booleans())
def test_strict_pass_implies_distribution_pass(model, include_u):
    data = ancestral_sample(model, 30, seed=3)
    inputs = tuple(n for n in data.columns if n.startswith("X"))
    manifest = manifest_for(model,
                            backgrounds=("U",) if include_u else (),
                            observables=inputs, whitelist=inputs)
    predictor = linear_predictor(model, manifest,
                                 {n: 0.7 for n in manifest.input_order()})
    strict = strict_cf_check(model, predictor, data, {"A": 1.0}, {"A": -1.0},
                             config=McmcConfig(seed=1), draws=25, max_records=6)
    plain = cf_fairness_test(model, predictor, data, {"A": 1.0}, {"A": -1.0},
                             config=McmcConfig(seed=1), draws=25, max_records=6)
    if strict.passed:
        assert plain.passed


@given(linear_models())
def test_descendant_inputs_must_be_whitelisted(model):
    manifest = manifest_for(model, observables=("X0",))
    with pytest.raises(InvalidPath):
        manifest.validate(model)


@settings(max_examples=50)
@given(linear_models(), st.data())
def test_audit_pass_reads_the_columns_of_a_full_pass(model, data):
    # the audit branches evaluate only the ancestors of the predictor's
    # inputs, with the held observables' causes cut; each input column must
    # equal, bit for bit, the one a pass over the whole intervened model gives
    # with the held columns given per record, as path_cf_test holds them
    mids = [n for n in model.names() if n.startswith("X")]
    inputs = data.draw(st.lists(st.sampled_from(["U", "Y"] + mids), min_size=1, unique=True))
    held = tuple(data.draw(st.lists(st.sampled_from(mids), unique=True)))
    manifest = manifest_for(model, backgrounds=[n for n in inputs if n == "U"],
                            observables=[n for n in inputs if n != "U"])
    predictor = linear_predictor(model, manifest, {n: 1.0 for n in inputs})
    sample = ancestral_sample(model, 4, seed=data.draw(st.integers(0, 100)))
    branches = ({"A": 1.0}, {"A": -1.0})
    sub = Dataset(("A",) + held, {n: sample.column(n) for n in ("A",) + held})
    exo = np.random.default_rng(0).normal(size=(4, 3, 1))

    passes = []

    def recording(*args, **kwargs):
        passes.append(forward_eval(*args, **kwargs))
        return passes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "forward_eval", recording)
        scores = metrics._branch_scores(predictor, model, sub, branches, ("U",), exo, 7, 33,
                                        held)
    for branch, pruned, score in zip(branches, passes, scores):
        given = {k: v for k, v in _stacked(exo, ("U",), sub.data).items() if k not in branch}
        full = forward_eval(intervene(model, branch), given, 12, 7, salt=33)
        for name in manifest.input_order():
            assert pruned[name].dtype == full[name].dtype
            assert pruned[name].tobytes() == full[name].tobytes()
        expected = predictor.score({n: full[n] for n in manifest.input_order()})
        assert score.tobytes() == expected.reshape(4, 3).tobytes()


# ---------------------------------------------------------------------------
# abduction over random linear-Gaussian DAGs

_ABDUCTION_CONFIG = McmcConfig(chains=2, burn_in=30, kept=10, thin=1, seed=2)
_COEF = st.sampled_from((-1.5, -0.5, 0.5, 1.0, 2.0))


@st.composite
def abduction_dags(draw, latent_noise: bool = True):
    """(model, evidence columns over 3 records): 2-4 normal backgrounds U*, then a
    short chain of LinearGaussian nodes X*, each reading up to 3 earlier nodes.

    Nodes are observed or not at random, and at least one node is observed, so
    zero-noise evidence may reach a latent noisy node. Without latent_noise,
    noisy nodes are always observed, so every latent endogenous node has zero
    noise and follows from the backgrounds and the evidence. Evidence is
    sampled from the model itself.
    """
    n_bg = draw(st.integers(2, 4))
    priors = {f"U{i}": NormalPrior(draw(_COEF), draw(st.sampled_from((0.5, 1.0, 2.0))))
              for i in range(n_bg)}
    variables = [Variable(u, Role.BACKGROUND) for u in priors]
    equations, observed, pool = [], [], list(priors)
    for k in range(draw(st.integers(1, 4))):
        name = f"X{k}"
        parents = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        noise = draw(st.sampled_from((0.0, 0.0, 0.5)))
        variables.append(Variable(name, Role.OBSERVED))
        equations.append(StructuralEquation(name, tuple(parents), LinearGaussian(
            draw(_COEF), tuple(draw(_COEF) for _ in parents), noise)))
        if (noise > 0 and not latent_noise) or draw(st.booleans()):
            observed.append(name)
        pool.append(name)
    observed = observed or [name]
    model = CausalModel(tuple(variables), tuple(equations), priors)
    data = ancestral_sample(model, 3, seed=draw(st.integers(0, 1000)))
    return model, {n: data.column(n) for n in observed}


def _zero_noise_gaps(model, evidence, backgrounds):
    """|equation - observation| / scale for every zero-noise evidence node.

    backgrounds maps each U to an array of values; latent X nodes are
    evaluated forward from them and from the evidence.
    """
    values = dict(backgrounds)
    gaps = []
    for eq in model.equations:
        fam = eq.family
        terms = [w * np.asarray(values[p]) for w, p in zip(fam.weights, eq.parents)]
        implied = fam.intercept + sum(terms)
        if eq.child in evidence:
            obs = evidence[eq.child].reshape((-1,) + (1,) * (np.ndim(implied) - 1))
            values[eq.child] = obs
            if fam.noise_std == 0.0:
                scale = 1.0 + np.abs(obs) + sum(np.abs(t) for t in terms)
                gaps.append(np.max(np.abs(implied - obs) / scale))
        else:
            values[eq.child] = implied
    return max(gaps, default=0.0)


@settings(max_examples=30)
@given(abduction_dags(latent_noise=False))
def test_abduction_satisfies_zero_noise_evidence(dag):
    # _zero_noise_gaps evaluates latent nodes forward without their noise, so
    # every latent node here has zero noise
    model, evidence = dag
    names = model.background
    post = abduct_records(model, evidence, _ABDUCTION_CONFIG)
    assert post.names == names
    assert _zero_noise_gaps(model, evidence,
                            {u: post.draws[:, :, j] for j, u in enumerate(names)}) <= 1e-9
    means = np.array([abduct_exact(model, {k: v[r] for k, v in evidence.items()}).mean
                      for r in range(3)])
    assert _zero_noise_gaps(model, evidence,
                            {u: means[:, j] for j, u in enumerate(names)}) <= 1e-9


@given(abduction_dags())
def test_mcmc_means_match_exact_conditioning(dag):
    # criterion 4's bound on random DAGs: every MH posterior mean lies within
    # 5 batch standard errors of the joint-normal one (1e-6 for a point mass)
    model, evidence = dag
    post = abduct_records(model, evidence,
                          McmcConfig(chains=2, burn_in=300, kept=400, thin=3, seed=5))
    for r in range(3):
        exact = abduct_exact(model, {k: v[r] for k, v in evidence.items()})
        for j, name in enumerate(post.names):
            u = post.draws[r, :, j]
            mu = exact.mean[exact.names.index(name)]
            assert abs(u.mean() - mu) <= max(5 * batch_se(u), 1e-6), (r, name, u.mean(), mu)


@settings(max_examples=30)
@given(abduction_dags(), st.data())
def test_impossible_zero_noise_evidence_raises_on_both_routes(dag, data):
    model, evidence = dag
    pinned = [eq for eq in model.equations
              if eq.child in evidence and eq.family.noise_std == 0.0]
    if not pinned:
        return
    # Z repeats a pinned node's equation, but is observed a little elsewhere
    eq = data.draw(st.sampled_from(pinned))
    twin = CausalModel(model.variables + (Variable("Z", Role.OBSERVED),),
                       model.equations + (StructuralEquation("Z", eq.parents, eq.family),),
                       dict(model.priors))
    obs = evidence[eq.child]
    evidence = {**evidence, "Z": obs + 1.0 + np.abs(obs)}
    with pytest.raises(SingularConditioning):
        posterior_draw_matrix(twin, evidence, _ABDUCTION_CONFIG, twin.background)
    with pytest.raises(ZeroPosteriorMass):
        abduct_records(twin, evidence, _ABDUCTION_CONFIG)


def _twisted(dag, twist):
    """An abduction DAG as it is ("linear"), with an observed Bernoulli child
    of U0, which leaves the joint-normal family ("bernoulli"), or with a
    categorical background that no evidence reaches ("categorical")."""
    model, evidence = dag
    variables, equations, priors = model.variables, model.equations, dict(model.priors)
    if twist == "bernoulli":
        variables += (Variable("B", Role.OBSERVED, domain=(0, 1)),)
        equations += (StructuralEquation("B", ("U0",), BernoulliLogit(0.0, (1.0,))),)
        evidence = {**evidence, "B": np.array([0, 1, 1])}
    elif twist == "categorical":
        variables += (Variable("C", Role.BACKGROUND, domain=(0, 1)),)
        priors["C"] = CategoricalPrior((0, 1), (0.3, 0.7))
    return CausalModel(variables, equations, priors), evidence


@settings(max_examples=30)
@given(abduction_dags(), st.sampled_from(("linear", "bernoulli", "categorical")))
def test_posterior_draw_matrix_routes_every_model(dag, twist):
    model, evidence = _twisted(dag, twist)
    assert exact_available(model, {k: v[0] for k, v in evidence.items()}) == (twist == "linear")
    draws = posterior_draw_matrix(model, evidence, _ABDUCTION_CONFIG, model.background)
    assert draws.shape == (3, _ABDUCTION_CONFIG.draws, len(model.background))
    assert np.all(np.isfinite(draws))


@settings(max_examples=30)
@given(abduction_dags(), st.sampled_from(("bernoulli", "categorical")))
def test_draws_without_a_free_coordinate_do_not_depend_on_the_block_size(dag, twist):
    # with no free continuous coordinate, a block's proposals are scored in one
    # density call over its stacked (step, chain, record) rows; blocks of one
    # step must give the same bits
    model, evidence = _twisted(dag, twist)
    target = counterfactual._Target(model, evidence, 3, require_valid(model), 1)
    assume(target.free_dim == 0)
    default = abduct_records(model, evidence, _ABDUCTION_CONFIG)
    with mock.patch.object(counterfactual, "_BLOCK_VALUES", 1):
        stepwise = abduct_records(model, evidence, _ABDUCTION_CONFIG)
    assert digest(stepwise.draws) == digest(default.draws)
    assert digest(stepwise.acceptance) == digest(default.acceptance)


@settings(max_examples=100)
@given(abduction_dags(), st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_a_record_draws_by_its_id_on_either_route(dag, picks):
    # the keys once held the record's position in the batch, and the matrix
    # products rounded a row differently beside other rows; one chain gives
    # the one-row products that BLAS computes another way
    for twist, chains in product(("linear", "bernoulli"), (1, 2)):
        model, evidence = _twisted(dag, twist)
        assert exact_available(model, {k: v[0] for k, v in evidence.items()}) == (
            twist == "linear")
        config = replace(_ABDUCTION_CONFIG, chains=chains)
        assert_keyed_by_id(lambda ev, ids: posterior_draw_matrix(
            model, ev, config, model.background, ids=ids), evidence, picks)


@settings(max_examples=30)
@given(abduction_dags(), st.data())
def test_a_names_draws_do_not_depend_on_the_other_names_on_the_exact_route(dag, data):
    model, evidence = dag
    names = model.background
    full = posterior_draw_matrix(model, evidence, _ABDUCTION_CONFIG, names)
    order = data.draw(st.permutations(names))
    some = order[:data.draw(st.integers(1, len(names)))]
    draws = posterior_draw_matrix(model, evidence, _ABDUCTION_CONFIG, tuple(some))
    for j, name in enumerate(some):
        assert digest(draws[:, :, j]) == digest(full[:, :, names.index(name)])


def _audit_setup(route):
    """(model, observed data, predictor, a, a_prime, config) of a paired audit."""
    if route == "exact":
        model, data = red_car(n=120, seed=8)
        obs = observed_only(model, data)
        return (model, obs, baseline_fit(obs, "unaware", "Y", protected=("A",)),
                {"A": 1.0}, {"A": -1.0}, McmcConfig(seed=4))
    model, data = law_school(n=60, seed=2)
    obs = observed_only(model, data)
    return (model, obs, baseline_fit(obs, "full", "FYA", protected=model.protected),
            {"R": 1}, {"R": 0}, McmcConfig(chains=2, burn_in=40, kept=10, thin=2, seed=3))


@settings(max_examples=10)
@given(st.sampled_from(("exact", "mcmc")), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 31))
@example("mcmc", 1, 12, 1)  # a one-row score once took another BLAS path
def test_an_audited_records_result_does_not_depend_on_its_companions(route, k, more, draws):
    # a smaller audit's records are among a larger one's, and each record's
    # means and largest paired gap are bit-identical in both; KS is not
    # checked, since its tie tolerance pools the spread of every record
    model, obs, predictor, a, a_prime, config = _audit_setup(route)
    fields = {cf_fairness_test: ("mean_factual", "mean_counterfactual"),
              strict_cf_check: ("max_abs_diff",)}
    for audit, names in fields.items():
        small, large = (audit(model, predictor, obs, a, a_prime, config, draws=draws,
                              max_records=m) for m in (k, k + more))
        by_record = {r["record"]: r for r in large.per_record}
        assert small.params["n_audited"] == min(k, large.params["n_audited"])
        for r in small.per_record:
            assert r["record"] in by_record
            assert [r[n] for n in names] == [by_record[r["record"]][n] for n in names]
