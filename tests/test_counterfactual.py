import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, stats
from scipy.special import expit

from cfair import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    DeterministicTable,
    DimensionMismatch,
    EvidenceOnBackground,
    SingularConditioning,
    LinearGaussian,
    McmcConfig,
    NormalPrior,
    PoissonLogLink,
    Role,
    ScenarioParams,
    StructuralEquation,
    UnattainableValue,
    UnknownVariable,
    Variable,
    ZeroPosteriorMass,
    abduct_exact,
    abduct_mcmc,
    abduct_records,
    build_model,
    counterfactual_sample,
    exact_available,
    ks_2sample,
    validate_evidence,
)
from cfair import counterfactual
from cfair.scm import require_valid
from helpers import (assert_keyed_by_id, batch_se, digest, law_school, loan, red_car,
                     single_latent_model, split_outcome_model)

FAST = McmcConfig(chains=2, burn_in=200, kept=200, thin=2, seed=0)


# ---------------------------------------------------------------------------
# exact abduction


def test_noise_free_evidence_pins_the_latent():
    model, _ = red_car(n=1)
    post = abduct_exact(model, {"A": 1.0, "X": 2.5})
    i = post.names.index("U")
    assert np.sqrt(post.cov[i, i]) <= 1e-9
    assert post.mean[i] == pytest.approx(2.5 - 1.0, abs=1e-9)


def test_no_evidence_returns_the_prior():
    post = abduct_exact(single_latent_model(), {})
    assert post.names == ("U",)
    assert post.mean[0] == pytest.approx(0.0, abs=1e-12)
    assert post.cov[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gaussian_conditioning_halves_the_variance():
    post = abduct_exact(single_latent_model(), {"X": 2.0})
    assert post.mean[0] == pytest.approx(1.0, abs=1e-9)
    assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_exact_route_detection():
    assert exact_available(single_latent_model(), {"X": 2.0})
    poisson = CausalModel(
        variables=(Variable("N", Role.OBSERVED), Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("N", ("U",), PoissonLogLink(0.0, (1.0,))),),
        priors={"U": NormalPrior(0.0, 1.0)})
    assert not exact_available(poisson, {"N": 3})
    # jointly impossible evidence on X1 = X2 = U: no exact route, and
    # abduction still raises
    twins = CausalModel(
        variables=(Variable("U", Role.BACKGROUND), Variable("X1", Role.OBSERVED),
                   Variable("X2", Role.OBSERVED)),
        equations=(StructuralEquation("X1", ("U",), LinearGaussian(0.0, (1.0,), 0.0)),
                   StructuralEquation("X2", ("U",), LinearGaussian(0.0, (1.0,), 0.0))),
        priors={"U": NormalPrior(0.0, 1.0)})
    assert exact_available(twins, {"X1": 0.5, "X2": 0.5})
    assert not exact_available(twins, {"X1": 0.0, "X2": 5e-7})
    with pytest.raises(SingularConditioning):
        abduct_exact(twins, {"X1": 0.0, "X2": 5e-7})


# ---------------------------------------------------------------------------
# MCMC abduction


def test_mcmc_matches_exact_conditioning():
    model = single_latent_model()
    exact = abduct_exact(model, {"X": 2.0})
    draws = abduct_mcmc(model, {"X": 2.0}, McmcConfig())
    u = draws.column("U")
    assert abs(u.mean() - 1.0) <= 0.05
    assert abs(u.mean() - exact.mean[0]) <= 5 * batch_se(u)


def test_mcmc_acceptance_band_and_quadrature_mean():
    model, data = law_school(n=5, seed=8)
    record = data.record(0)
    evidence = {k: record[k] for k in ("R", "S", "GPA", "LSAT", "FYA")}
    draws = abduct_mcmc(model, evidence, McmcConfig(seed=2))
    rate = float(draws.acceptance.mean())
    # healthy-mixing band for the fixed 0.5 proposal: stuck chains sit near 0,
    # vanishing steps near 1; observed range on this posterior is 0.61-0.68
    assert 0.15 <= rate <= 0.8

    # dense 1-D quadrature over the latent against the same equations
    eq = model.equation_map
    k = np.linspace(-8.0, 8.0, 4001)

    def lin_loglik(name):
        fam = eq[name].family
        w = dict(zip(eq[name].parents, fam.weights))
        mu = fam.intercept + w["K"] * k + w["R"] * record["R"] + w["S"] * record["S"]
        return stats.norm.logpdf(record[name], mu, fam.noise_std)

    fam_l = eq["LSAT"].family
    wl = dict(zip(eq["LSAT"].parents, fam_l.weights))
    log_rate = fam_l.intercept + wl["K"] * k + wl["R"] * record["R"] + wl["S"] * record["S"]
    logp = (stats.norm.logpdf(k, 0.0, 1.0) + lin_loglik("GPA") + lin_loglik("FYA")
            + stats.poisson.logpmf(record["LSAT"], np.exp(log_rate)))
    w = np.exp(logp - logp.max())
    quad_mean = float(integrate.trapezoid(w * k, k) / integrate.trapezoid(w, k))

    u = draws.column("K")
    assert abs(u.mean() - quad_mean) <= max(0.05, 5 * batch_se(u))


def test_contradictory_table_evidence_raises():
    model = build_model(ScenarioParams(kind="loan", params={"p_p": 1.0}))
    # P is always 1, so with A=1 employment can never be 1
    with pytest.raises(ZeroPosteriorMass):
        abduct_mcmc(model, {"A": 1, "Employed": 1}, McmcConfig(seed=0))


def test_mcmc_is_deterministic():
    model = single_latent_model()
    a = abduct_mcmc(model, {"X": 0.5}, McmcConfig(seed=9))
    b = abduct_mcmc(model, {"X": 0.5}, McmcConfig(seed=9))
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.acceptance, b.acceptance)


# ---------------------------------------------------------------------------
# evidence validation


def test_evidence_on_background_rejected():
    with pytest.raises(EvidenceOnBackground):
        validate_evidence(split_outcome_model(), {"U": 1.0})


def test_evidence_outside_domain_rejected():
    with pytest.raises(UnattainableValue):
        validate_evidence(split_outcome_model(), {"A": 5})


def _red_car_evidence():
    model, data = red_car(n=3, seed=0)
    return model, {k: data.column(k) for k in ("A", "X")}


def test_posterior_draw_matrix_rejects_an_endogenous_name():
    # Y is unobserved but has an equation: neither exogenous nor sampler state
    model, evidence = _red_car_evidence()
    with pytest.raises(UnknownVariable):
        counterfactual.posterior_draw_matrix(model, evidence, FAST, ("U", "Y"))


def test_abduct_records_rejects_an_endogenous_name():
    model, evidence = _red_car_evidence()
    with pytest.raises(UnknownVariable):
        abduct_records(model, evidence, FAST, names=("U", "Y"))


@pytest.mark.parametrize("route", ["exact", "mcmc"])
def test_both_routes_validate_evidence(route):
    # red_car and single_latent_model are linear-Gaussian; abduct_records is
    # the MH sampler whatever the model, as is any route on loan
    def draws(model, evidence, names):
        if route == "exact":
            return counterfactual.posterior_draw_matrix(model, evidence, FAST, names)
        return abduct_records(model, evidence, FAST, names=names).draws

    model, data = red_car(n=2)
    with pytest.raises(UnattainableValue):  # A's domain is (-1, 1)
        draws(model, {"A": np.array([7.0, 1.0]), "X": data.column("X")}, ("U",))
    for bad in ("abc", "1.5"):
        with pytest.raises(UnattainableValue):
            draws(single_latent_model(), {"X": np.array([bad])}, ("U",))
    one = (model, {"A": 7.0, "X": 0.1}) if route == "exact" else (loan(n=1)[0], {"A": 5})
    with pytest.raises(UnattainableValue):
        counterfactual.exogenous_draws(*one, 10, FAST)
    with pytest.raises(UnattainableValue):
        counterfactual.exogenous_draws(single_latent_model(), {"X": "1.5"}, 10, FAST)


def test_object_evidence_of_numbers_draws_as_its_float_column():
    # X = 0.2 + 0.1 * B gives 0.30000000000000004 at B = 1: within 1e-9 of an
    # observed 0.3 in either dtype, so the posterior puts all mass on B = 1
    model = CausalModel(
        variables=(Variable("B", Role.BACKGROUND, domain=(0, 1)), Variable("X", Role.OBSERVED)),
        equations=(StructuralEquation("X", ("B",), LinearGaussian(0.2, (0.1,), 0.0)),),
        priors={"B": CategoricalPrior((0, 1), (0.5, 0.5))})
    config = McmcConfig(chains=1, burn_in=10, kept=5, thin=1)
    floats = abduct_records(model, {"X": np.array([0.3])}, config).draws
    objects = abduct_records(model, {"X": np.array([0.3], dtype=object)}, config).draws
    assert np.array_equal(floats, np.ones((1, 5, 1)))
    assert np.array_equal(objects, floats)


# ---------------------------------------------------------------------------
# three-step counterfactuals


def test_linear_counterfactual_is_deterministic_shift():
    alpha, beta = 1.25, 0.75
    model, _ = red_car(n=1, alpha=alpha, beta=beta)
    x, a, a_cf = 1.7, 1.0, -1.0
    out = counterfactual_sample(model, {"A": a, "X": x}, {"A": a_cf}, 64, FAST)
    assert np.allclose(out.column("X"), x + alpha * (a_cf - a), atol=1e-9)
    assert np.allclose(out.column("U"), (x - alpha * a) / beta, atol=1e-9)


def test_null_intervention_reproduces_factual_conditional():
    model = split_outcome_model(noise=0.5)
    evidence = {"A": 1, "X": 1.2}
    factual = counterfactual_sample(model, evidence, {}, 10_000,
                                    McmcConfig(seed=1))
    null_iv = counterfactual_sample(model, evidence, {"A": 1}, 10_000,
                                    McmcConfig(seed=2))
    assert ks_2sample(factual.column("Y"), null_iv.column("Y")) <= 0.02


def test_nondescendants_keep_their_draws_exactly():
    model = split_outcome_model(noise=0.5)
    evidence = {"A": 1, "X": 1.2}
    cfg = McmcConfig(seed=3)
    flipped = counterfactual_sample(model, evidence, {"A": 0}, 2000, cfg)
    held = counterfactual_sample(model, evidence, {}, 2000, cfg)
    assert np.array_equal(flipped.column("U"), held.column("U"))
    assert np.array_equal(flipped.column("Y"), held.column("Y"))
    assert not np.array_equal(flipped.column("X"), held.column("X"))


def test_loan_flip_fraction_matches_enumeration():
    model, _ = loan_model_and_data()
    evidence = {"A": 1, "Employed": 0}
    # posterior over (P,Q) given A=1, E=0: states 00, 10, 11 equally likely;
    # flipping A to 0 changes E only in state 11
    cfg = McmcConfig(chains=2, burn_in=500, kept=5000, thin=2, seed=6)
    out = counterfactual_sample(model, evidence, {"A": 0}, 10_000, cfg)
    flip_rate = float((out.column("Employed") != 0).mean())
    assert abs(flip_rate - 1.0 / 3.0) <= 0.03


def loan_model_and_data():
    from helpers import loan
    return loan(n=1, seed=0)


def test_counterfactual_sampling_deterministic():
    model = split_outcome_model(noise=0.5)
    cfg = McmcConfig(seed=12)
    a = counterfactual_sample(model, {"A": 1, "X": 0.3}, {"A": 0}, 500, cfg)
    b = counterfactual_sample(model, {"A": 1, "X": 0.3}, {"A": 0}, 500, cfg)
    for c in a.columns:
        assert np.array_equal(a.column(c), b.column(c))


def test_exact_and_mcmc_posteriors_agree_on_gaussian_fixtures():
    # two latents, partially observed: exercises the joint-normal path
    model = CausalModel(
        variables=(Variable("X1", Role.OBSERVED), Variable("X2", Role.OBSERVED),
                   Variable("U1", Role.BACKGROUND), Variable("U2", Role.BACKGROUND)),
        equations=(StructuralEquation("X1", ("U1", "U2"),
                                      LinearGaussian(0.0, (1.0, 0.5), 0.8)),
                   StructuralEquation("X2", ("U2",),
                                      LinearGaussian(0.5, (1.5,), 0.6)),),
        priors={"U1": NormalPrior(0.0, 1.0), "U2": NormalPrior(0.0, 1.0)})
    evidence = {"X1": 0.7, "X2": -0.4}
    exact = abduct_exact(model, evidence)
    draws = abduct_mcmc(model, evidence, McmcConfig(seed=5, kept=400))
    for name in ("U1", "U2"):
        u = draws.column(name)
        mu = exact.mean[exact.names.index(name)]
        assert abs(u.mean() - mu) <= 5 * batch_se(u)


# ---------------------------------------------------------------------------
# MH sampler byte identity


def string_latent_model() -> CausalModel:
    """String-valued categorical latent C behind a table G -> E, plus every other
    kind of MH state: an eliminated zero-noise child X0, a latent Gaussian H,
    a latent Bernoulli B, and backgrounds W, V that the evidence does not reach."""
    table_g = {("red",): "g0", ("green",): "g1", ("blue",): "g1"}
    table_e = {(g, b): int(g == "g1" or b == 1) for g in ("g0", "g1") for b in (0, 1)}
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(0, 1)),
                   Variable("C", Role.BACKGROUND, domain=("red", "green", "blue")),
                   Variable("U", Role.BACKGROUND),
                   Variable("U2", Role.BACKGROUND),
                   Variable("W", Role.BACKGROUND),
                   Variable("V", Role.BACKGROUND, domain=("x", "y")),
                   Variable("H", Role.OBSERVED),
                   Variable("B", Role.OBSERVED, domain=(0, 1)),
                   Variable("G", Role.OBSERVED, domain=("g0", "g1")),
                   Variable("E", Role.OBSERVED, domain=(0, 1)),
                   Variable("X", Role.OBSERVED),
                   Variable("X0", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME)),
        equations=(StructuralEquation("H", ("U",), LinearGaussian(0.2, (1.0,), 0.7)),
                   StructuralEquation("B", ("U",), BernoulliLogit(-0.3, (1.5,))),
                   StructuralEquation("G", ("C",), DeterministicTable(table_g)),
                   StructuralEquation("E", ("G", "B"), DeterministicTable(table_e)),
                   StructuralEquation("X", ("H", "A"), LinearGaussian(0.0, (1.0, 0.8), 0.5)),
                   StructuralEquation("X0", ("U", "U2"), LinearGaussian(0.1, (1.0, -0.5), 0.0)),
                   StructuralEquation("Y", ("W",), LinearGaussian(0.0, (1.0,), 1.0))),
        priors={"A": CategoricalPrior((0, 1), (0.5, 0.5)),
                "C": CategoricalPrior(("red", "green", "blue"), (0.5, 0.3, 0.2)),
                "U": NormalPrior(0.0, 1.0), "U2": NormalPrior(0.5, 2.0),
                "W": NormalPrior(1.0, 0.5),
                "V": CategoricalPrior(("x", "y"), (0.25, 0.75))})


def discrete_latent_model() -> CausalModel:
    """MH state without a continuous coordinate: a categorical C behind a table
    G, a categorical K behind a latent Bernoulli B, and an observed
    Bernoulli-logit child Y of B and C. The 60 x 40 x 2 = 4,800 joint states
    exceed _feasible_init's 4,096, so a chain starts at C's prior mode, where
    G = "mid" or "hi" is impossible, and must move out of it."""
    c_values, k_values = tuple(range(60)), tuple(range(40))
    weights = [1 + c % 3 for c in c_values]
    table_g = {(c,): "lo" if c < 20 else "mid" if c < 45 else "hi" for c in c_values}
    return CausalModel(
        variables=(Variable("C", Role.BACKGROUND, domain=c_values),
                   Variable("K", Role.BACKGROUND, domain=k_values),
                   Variable("G", Role.OBSERVED, domain=("lo", "mid", "hi")),
                   Variable("B", Role.OBSERVED, domain=(0, 1)),
                   Variable("Y", Role.OBSERVED, domain=(0, 1))),
        equations=(StructuralEquation("G", ("C",), DeterministicTable(table_g)),
                   StructuralEquation("B", ("K",), BernoulliLogit(-1.0, (0.05,))),
                   StructuralEquation("Y", ("B", "C"), BernoulliLogit(-0.5, (1.2, 0.03)))),
        priors={"C": CategoricalPrior(c_values, tuple(w / sum(weights) for w in weights)),
                "K": CategoricalPrior(k_values, (1 / 40,) * 40)})


def _abduction_fixture(name):
    if name == "discrete":
        # 4 records x 2 chains x 4 slots: a block of 70 values holds 2 steps
        return (discrete_latent_model(),
                {"G": np.array(["lo", "mid", "hi", "mid"], dtype=object),
                 "Y": np.array([1, 0, 1, 1])},
                McmcConfig(chains=2, burn_in=33, kept=14, thin=3, seed=8))
    if name == "loan":
        model, _ = loan(n=1, seed=0)
        return (model, {"A": np.array([1]), "Employed": np.array([0])},
                McmcConfig(chains=2, burn_in=37, kept=23, thin=3, seed=6))
    if name == "law_school":
        model, data = law_school(n=10, seed=3)
        return (model, {k: data.column(k) for k in ("R", "S", "GPA", "LSAT")},
                McmcConfig(chains=2, burn_in=41, kept=12, thin=3, seed=0))
    if name == "indicator":
        # Z = 1 + 2 D without noise: D is discrete, so Z's evidence is a
        # per-record indicator, matched within 1e-9 (the last record is off by 1e-12)
        model = CausalModel(
            variables=(Variable("D", Role.BACKGROUND, domain=(0, 1, 2)),
                       Variable("U", Role.BACKGROUND),
                       Variable("Z", Role.OBSERVED),
                       Variable("X", Role.OBSERVED)),
            equations=(StructuralEquation("Z", ("D",), LinearGaussian(1.0, (2.0,), 0.0)),
                       StructuralEquation("X", ("U", "D"), LinearGaussian(0.0, (1.0, 0.5), 1.0))),
            priors={"D": CategoricalPrior((0, 1, 2), (0.2, 0.5, 0.3)),
                    "U": NormalPrior(0.0, 1.0)})
        return (model, {"Z": np.array([3.0, 1.0, 5.0 + 1e-12]), "X": np.array([0.4, -0.3, 1.9])},
                McmcConfig(chains=2, burn_in=31, kept=9, thin=2, seed=4))
    return (string_latent_model(),
            {"A": np.array([0, 1, 1, 0]), "E": np.array([1, 0, 1, 1]),
             "X": np.array([0.3, -1.2, 2.0, 0.0]), "X0": np.array([0.5, 1.0, -0.7, 0.0])},
            McmcConfig(chains=2, burn_in=29, kept=11, thin=4, seed=5))


# (draws, acceptance) digests recorded with the sampler that hashed every
# step's key in full; drawing the same keys in blocks must reproduce them.
# "strings" was re-recorded when prior draws outside the chain (W, V) were
# keyed by name instead of column; "discrete" was recorded with the sampler
# that scored each step's proposals in a density call of its own
ABDUCTION_DIGESTS = {
    "discrete": ("c91d618e9bd4f04f", "d25b5f7a05f50985"),
    "loan": ("19198d19a19ed999", "53f7a11ca91762ef"),
    "law_school": ("bb48b4ac975620ac", "0b9d77f58c109a8e"),
    "indicator": ("d3fb8b3cdddd3de0", "41704422471b59ab"),
    "strings": ("8795f4a4e462c5bd", "7ac7af70c00c6929"),
}


@pytest.mark.digest
@pytest.mark.parametrize("block_values", [1, 70, None])
@pytest.mark.parametrize("name", sorted(ABDUCTION_DIGESTS))
def test_abduct_records_is_byte_identical_for_any_block_size(name, block_values, monkeypatch):
    # 1 value per block gives one step per block; 70 splits every fixture's
    # chain into blocks of a few steps that straddle burn-in and thinning
    if block_values is not None:
        monkeypatch.setattr(counterfactual, "_BLOCK_VALUES", block_values)
    model, evidence, config = _abduction_fixture(name)
    post = abduct_records(model, evidence, config)
    assert (digest(post.draws), digest(post.acceptance)) == ABDUCTION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ABDUCTION_DIGESTS))
def test_chains_are_prefixes_of_longer_runs(name):
    # chain c is keyed by (seed, record, c) alone, so adding chains appends
    # draws without moving the ones before them
    model, evidence, config = _abduction_fixture(name)
    runs = {c: abduct_records(model, evidence, replace(config, chains=c)) for c in (1, 2, 3)}
    kept = config.kept
    for short, long in ((1, 2), (2, 3)):
        np.testing.assert_array_equal(runs[short].draws, runs[long].draws[:, :short * kept])
        np.testing.assert_array_equal(runs[short].acceptance, runs[long].acceptance[:, :short])


@given(st.sampled_from(sorted(ABDUCTION_DIGESTS)), st.data())
def test_a_record_draws_by_its_id_on_the_mh_route(name, data):
    # the MH keys once held the record's position in the batch, so the same
    # record drew differently at another position
    model, evidence, config = _abduction_fixture(name)
    config = replace(config, chains=data.draw(st.integers(1, 3)))  # one chain: one-row products
    n = len(next(iter(evidence.values())))
    assert not exact_available(model, {k: v[0] for k, v in evidence.items()})
    names = abduct_records(model, evidence, config).names
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    assert_keyed_by_id(lambda ev, ids: counterfactual.posterior_draw_matrix(
        model, ev, config, names, ids=ids), evidence, picks)


@given(st.permutations(("C", "U", "U2", "W", "V", "B")), st.integers(1, 6))
def test_a_names_draws_do_not_depend_on_the_other_names_on_the_mh_route(order, count):
    # W and V are prior draws outside the chain, once keyed by their column
    model, evidence, config = _abduction_fixture("strings")
    full = abduct_records(model, evidence, config, names=("C", "U", "U2", "W", "V", "B"))
    some = abduct_records(model, evidence, config, names=order[:count])
    for j, name in enumerate(order[:count]):
        # equal as values: a numeric column is object dtype beside C
        assert some.draws[:, :, j].tolist() == full.draws[:, :, full.names.index(name)].tolist()


def test_record_ids_must_be_one_integer_per_record():
    model, evidence, config = _abduction_fixture("law_school")
    for ids in (np.arange(9), np.arange(10.0), np.arange(20).reshape(10, 2)):
        with pytest.raises(DimensionMismatch, match="ids must be 10 integers"):
            counterfactual.posterior_draw_matrix(model, evidence, config, ("K",), ids=ids)


def test_a_records_impossibility_verdict_does_not_depend_on_its_companions():
    # X1 = X2 = U without noise: record 0's X2 misses X1 by 5e-7, above 1e-8
    # times its own scale; a companion with |X| = 1000 once raised the shared
    # scale enough to let record 0 pass, on both routes
    model = CausalModel(
        variables=(Variable("U", Role.BACKGROUND), Variable("X1", Role.OBSERVED),
                   Variable("X2", Role.OBSERVED), Variable("B", Role.OBSERVED, (0, 1))),
        equations=(StructuralEquation("X1", ("U",), LinearGaussian(0.0, (1.0,), 0.0)),
                   StructuralEquation("X2", ("U",), LinearGaussian(0.0, (1.0,), 0.0)),
                   StructuralEquation("B", ("U",), BernoulliLogit(0.0, (1.0,)))),
        priors={"U": NormalPrior(0.0, 1.0)})
    off, far = (0.0, 5e-7), (1000.0, 1000.0)
    for route, extra, error in (("exact", {}, SingularConditioning),
                                ("mcmc", {"B": np.array([1, 1])}, ZeroPosteriorMass)):
        for pair in ((off,), (off, far), (far, off)):
            evidence = {"X1": np.array([p[0] for p in pair]),
                        "X2": np.array([p[1] for p in pair]),
                        **{k: v[:len(pair)] for k, v in extra.items()}}
            with pytest.raises(error, match=rf"record\(s\) \[{pair.index(off)}\]"):
                counterfactual.posterior_draw_matrix(model, evidence, FAST, ("U",))
        alone = {"X1": np.array([far[0]]), "X2": np.array([far[1]]),
                 **{k: v[:1] for k, v in extra.items()}}
        assert exact_available(model, {k: v[0] for k, v in alone.items()}) == (route == "exact")
        counterfactual.posterior_draw_matrix(model, alone, FAST, ("U",))


@pytest.mark.parametrize("field, value", [("chains", 0), ("kept", 0), ("thin", 0),
                                          ("burn_in", -1), ("proposal_std", 0.0),
                                          ("proposal_std", float("nan")),
                                          ("proposal_std", float("inf")),
                                          ("chains", 2.5), ("kept", 3.5), ("burn_in", 1.5),
                                          ("thin", 2.0), ("chains", True)])
def test_mcmc_config_rejects_settings_that_keep_no_posterior(field, value):
    # thin = 0 once ran the burn-in only and returned all-zero "draws"; a
    # fractional count once reached the sampler and raised a bare TypeError
    with pytest.raises(DimensionMismatch, match=f"mcmc {field} must be"):
        McmcConfig(**{field: value})
    with pytest.raises(DimensionMismatch):
        replace(FAST, **{field: value})


def test_feasible_init_skips_more_than_4096_combinations():
    # 2**64 combinations wrap to 0 in an int64 product, which once passed the
    # cap and started a scan over every combination
    def unreachable(*args):
        raise AssertionError("scanned combinations above the cap")

    names = tuple(f"P{i}" for i in range(64))
    target = SimpleNamespace(disc_names=names, values_of={n: (0, 1) for n in names},
                             log_density=unreachable)
    codes, logp = np.zeros((1, 64), dtype=np.intp), np.array([-np.inf])
    assert counterfactual._feasible_init(target, None, codes, logp) == (codes, logp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_chain_still_in_an_impossible_state_raises(seed):
    # P has 5,000 values, above _feasible_init's scan cap, so both records'
    # chains start at P = 0, where E = 1 is impossible; the second record's
    # chain once kept every draw before its first move to P = 4999
    values = tuple(range(5000))
    model = CausalModel(
        variables=(Variable("P", Role.BACKGROUND, domain=values),
                   Variable("E", Role.OBSERVED, domain=(0, 1))),
        equations=(StructuralEquation("E", ("P",), DeterministicTable(
            {(p,): int(p == 4999) for p in values})),),
        priors={"P": CategoricalPrior(values, (1 / 5000,) * 5000)})
    config = McmcConfig(chains=1, burn_in=0, kept=20000, thin=1, seed=seed)
    with pytest.raises(ZeroPosteriorMass, match=r"record\(s\) \[1\]"):
        abduct_records(model, {"E": np.array([0, 1])}, config)


def test_mh_solves_zero_noise_evidence_on_a_latent_noisy_node():
    # U -> H (noise 0.5) -> X (no noise), B ~ BernoulliLogit(U): the Bernoulli
    # child leaves the exact route, and X = 0.3 pins H, a latent node of the
    # sampler's continuous block; the U mean must match 1-D quadrature
    model = CausalModel(
        variables=(Variable("U", Role.BACKGROUND), Variable("H", Role.OBSERVED),
                   Variable("X", Role.OBSERVED), Variable("B", Role.OBSERVED, domain=(0, 1))),
        equations=(StructuralEquation("H", ("U",), LinearGaussian(0.0, (1.0,), 0.5)),
                   StructuralEquation("X", ("H",), LinearGaussian(0.0, (1.0,), 0.0)),
                   StructuralEquation("B", ("U",), BernoulliLogit(0.0, (1.0,)))),
        priors={"U": NormalPrior(0.0, 1.0)})
    assert not exact_available(model, {"X": 0.3, "B": 1})
    post = abduct_records(model, {"X": np.array([0.3]), "B": np.array([1])},
                          McmcConfig(chains=2, burn_in=500, kept=2000, thin=5, seed=0))
    u = post.column("U")
    weight = lambda v: stats.norm.pdf(v) * stats.norm.pdf(0.3, v, 0.5) * expit(v)
    mean = integrate.quad(lambda v: v * weight(v), -10, 10)[0] / integrate.quad(weight, -10, 10)[0]
    assert abs(u.mean() - mean) <= 5 * batch_se(u), (u.mean(), mean, batch_se(u))


def test_numeric_domains_give_float_draws():
    model, evidence, config = _abduction_fixture("strings")
    # B is latent Bernoulli state, not exogenous, and is reported from the chain
    post = abduct_records(model, evidence, config, names=("U", "U2", "W", "B"))
    assert post.draws.dtype == np.float64
    assert set(np.unique(post.draws[:, :, 3])) <= {0.0, 1.0}
    loan_model, loan_evidence, loan_config = _abduction_fixture("loan")
    draws = abduct_records(loan_model, loan_evidence, loan_config).draws
    assert draws.dtype == np.float64
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_string_domains_give_object_draws():
    model, evidence, config = _abduction_fixture("strings")
    post = abduct_records(model, evidence, config, names=("U", "C", "V"))
    assert post.draws.dtype == object
    assert {type(v) for v in post.draws[:, :, 0].ravel()} == {float}
    assert set(post.draws[:, :, 1].ravel()) <= {"red", "green", "blue"}
    assert set(post.draws[:, :, 2].ravel()) == {"x", "y"}


def test_mixed_domain_gives_object_draws_whatever_is_drawn_first():
    # M mixes a number and a string; its first draw may well be the number
    model = CausalModel(
        variables=(Variable("X", Role.OBSERVED), Variable("U", Role.BACKGROUND),
                   Variable("M", Role.BACKGROUND, domain=(0, "a"))),
        equations=(StructuralEquation("X", ("U",), LinearGaussian(0.0, (1.0,), 1.0)),),
        priors={"U": NormalPrior(0.0, 1.0), "M": CategoricalPrior((0, "a"), (0.5, 0.5))})
    config = McmcConfig(chains=2, burn_in=10, kept=20, thin=1, seed=1)
    post = abduct_records(model, {"X": np.array([0.5, -1.0])}, config)
    assert post.names == ("U", "M")
    assert post.draws.dtype == object
    assert set(post.draws[:, :, 1].ravel()) == {0, "a"}


# ---------------------------------------------------------------------------
# exact route byte identity


def redundant_evidence_model() -> CausalModel:
    """X2 repeats X1 twice over without noise, so one evidence row is redundant."""
    return CausalModel(
        variables=(Variable("U1", Role.BACKGROUND), Variable("U2", Role.BACKGROUND),
                   Variable("X1", Role.OBSERVED), Variable("X2", Role.OBSERVED),
                   Variable("X3", Role.OBSERVED)),
        equations=(StructuralEquation("X1", ("U1", "U2"), LinearGaussian(0.2, (1.0, 1.0), 0.0)),
                   StructuralEquation("X2", ("X1",), LinearGaussian(-0.1, (2.0,), 0.0)),
                   StructuralEquation("X3", ("U1", "U2"), LinearGaussian(0.0, (1.0, -0.7), 0.5))),
        priors={"U1": NormalPrior(0.3, 1.5), "U2": NormalPrior(-0.2, 0.8)})


def _exact_outputs(name):
    config = McmcConfig(chains=2, kept=7, seed=3)
    if name == "pdm_red_car":
        model, data = red_car(n=5, seed=2)
        return counterfactual.posterior_draw_matrix(
            model, {k: data.column(k) for k in ("A", "X")}, config, ("U",))
    if name == "pdm_redundant":
        x1 = np.array([0.5, -1.0, 2.0])
        evidence = {"X1": x1, "X2": 2.0 * x1 - 0.1, "X3": np.array([0.1, 0.4, -0.9])}
        return counterfactual.posterior_draw_matrix(
            redundant_evidence_model(), evidence, config, ("U2", "U1"))
    if name == "exogenous_draws":
        draws = counterfactual.exogenous_draws(single_latent_model(), {"X": 2.0}, 40, config)
        return draws["U"]
    if name == "counterfactual_sample":
        out = counterfactual_sample(single_latent_model(0.5), {"X": -0.4}, {"X": 1.0}, 40, config)
        return np.column_stack([out.column(c) for c in out.columns])
    post = abduct_exact(redundant_evidence_model(), {"X1": 0.5, "X2": 0.9, "X3": 0.1})
    return post.mean if name == "abduct_exact_mean" else post.cov


# digests of the joint-normal route recorded before its elimination was shared
# with the MH sampler's; the shared elimination must reproduce them. The
# one-record views and pdm_redundant (names out of model order) were
# re-recorded when exact draws were keyed by record id over every latent
EXACT_DIGESTS = {
    "pdm_red_car": "2293e84c6186090c",
    "pdm_redundant": "4ff47f6053fde2d1",
    "exogenous_draws": "41121600ed59b9ff",
    "counterfactual_sample": "c466d47c0bd38e33",
    "abduct_exact_mean": "fc5b31f0084ccc4a",
    "abduct_exact_cov": "ba88500ddf563b55",
}


@pytest.mark.digest
@pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
def test_exact_route_is_byte_identical(name):
    assert digest(_exact_outputs(name)) == EXACT_DIGESTS[name]


def _broadcast_row_products(a, b):
    """_row_products as both routes' digests were recorded with it: one
    (..., 1) x (d,) broadcast product per contraction index."""
    out = np.zeros(a.shape[:-1] + b.shape[:1])
    for j in range(a.shape[-1]):
        out += a[..., j, None] * b[:, j]
    return out


@given(st.integers(1, 4), st.integers(0, 3),
       st.lists(st.integers(1, 6), min_size=1, max_size=3), st.data())
def test_row_products_keep_the_bits_of_the_broadcast_sums(d, k, lead, data):
    # per output column the same products are summed in the same order, so
    # every bit holds at any number of outputs, contraction length and
    # leading axes
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    a = data.draw(hnp.arrays(np.float64, (*lead, k), elements=elements))
    b = data.draw(hnp.arrays(np.float64, (d, k), elements=elements))
    out = counterfactual._row_products(a, b)
    assert out.shape == (*lead, d)
    assert out.tobytes() == _broadcast_row_products(a, b).tobytes()


def _dataset_digest(data) -> str:
    """SHA-256 over the column order and each column's digest (dtype included)."""
    parts = " ".join(f"{c}={digest(data.column(c))}" for c in data.columns)
    return hashlib.sha256(parts.encode()).hexdigest()[:16]


# recorded while counterfactual_sample ran its own abduct-act-predict pass;
# the pass it shares with prob_sufficiency must reproduce it. The loan model's
# categorical backgrounds take the MH route, and 50 draws cycle its 2 x 15.
CF_SAMPLE_MCMC_DIGEST = "87a5236b4766efd3"


@pytest.mark.digest
def test_counterfactual_sample_mcmc_route_is_byte_identical():
    model, _ = loan(n=10, seed=0)
    config = McmcConfig(chains=2, burn_in=40, kept=15, thin=2, seed=6)
    assert not exact_available(model, {"A": 1, "Employed": 0})
    out = counterfactual_sample(model, {"A": 1, "Employed": 0}, {"A": 0}, 50, config)
    assert _dataset_digest(out) == CF_SAMPLE_MCMC_DIGEST


def test_exogenous_draws_cycle_the_posterior_draw_matrix():
    # both views abduct through one site: on the loan model's MH route, 50
    # draws of one record cycle the 2 x 15 draws of its posterior matrix
    model, _ = loan(n=10, seed=0)
    config = McmcConfig(chains=2, burn_in=40, kept=15, thin=2, seed=6)
    evidence = {"A": 1, "Employed": 0}
    latent = ("P", "Q")
    draws = counterfactual.exogenous_draws(model, evidence, 50, config)
    matrix = counterfactual.posterior_draw_matrix(
        model, {k: np.array([v]) for k, v in evidence.items()}, config, latent)
    assert not exact_available(model, evidence)
    for j, name in enumerate(latent):
        np.testing.assert_array_equal(draws[name], matrix[0, np.arange(50) % config.draws, j])
    np.testing.assert_array_equal(draws["A"], np.ones(50))


# ---------------------------------------------------------------------------
# the reuse scope around abduct_records


def _law_evidence(n=6, seed=2):
    model, data = law_school(n=n, seed=seed)
    return model, {name: data.column(name) for name in ("R", "S", "GPA", "LSAT")}


_REUSE_CFG = McmcConfig(chains=2, burn_in=20, kept=5, thin=1, seed=3)


def test_a_repeated_abduction_in_a_reuse_scope_returns_the_kept_read_only_draws():
    model, evidence = _law_evidence()
    fresh = abduct_records(model, evidence, _REUSE_CFG)
    with counterfactual._reuse_passes():
        first = abduct_records(model, evidence, _REUSE_CFG)
        hit = abduct_records(model, dict(evidence), _REUSE_CFG)
    assert hit is first
    np.testing.assert_array_equal(hit.draws, fresh.draws)
    np.testing.assert_array_equal(hit.acceptance, fresh.acceptance)
    with pytest.raises(ValueError):
        hit.draws[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        hit.acceptance[0, 0] = 0.0


def _one_ulp(model, evidence, config):
    gpa = evidence["GPA"].copy()
    gpa[3] = np.nextafter(gpa[3], np.inf)
    return model, {**evidence, "GPA": gpa}, config


def _refit_in_place(model, evidence, config):
    eq = model.equation_map["GPA"]
    refit = StructuralEquation(eq.child, eq.parents,
                               replace(eq.family, intercept=eq.family.intercept + 0.5))
    object.__setattr__(model, "equations", tuple(refit if e.child == "GPA" else e
                                                 for e in model.equations))
    return model, evidence, config


def _another_seed(model, evidence, config):
    return model, evidence, replace(config, seed=config.seed + 1)


def _object_column(model, evidence, config):
    return model, {**evidence, "R": evidence["R"].astype(object)}, config


@pytest.mark.parametrize("change", [_one_ulp, _refit_in_place, _another_seed, _object_column])
def test_a_reuse_scope_misses_on_any_change_of_what_the_draws_depend_on(change):
    model, evidence = _law_evidence()
    with counterfactual._reuse_passes():
        first = abduct_records(model, evidence, _REUSE_CFG)
        model, evidence, config = change(model, evidence, _REUSE_CFG)
        second = abduct_records(model, evidence, config)
    assert second is not first
    fresh = abduct_records(model, evidence, config)
    np.testing.assert_array_equal(second.draws, fresh.draws)
    np.testing.assert_array_equal(second.acceptance, fresh.acceptance)


def test_nothing_is_kept_outside_a_reuse_scope():
    model, evidence = _law_evidence()
    with counterfactual._reuse_passes():
        abduct_records(model, evidence, _REUSE_CFG)
    assert counterfactual._REUSE.get() is None
    first = abduct_records(model, evidence, _REUSE_CFG)
    second = abduct_records(model, evidence, _REUSE_CFG)
    assert second is not first
    assert first.draws.flags.writeable and first.acceptance.flags.writeable
    np.testing.assert_array_equal(first.draws, second.draws)


# ---------------------------------------------------------------------------
# chains started from a given state (the EM's persistent E-step chains)


_STARTED = {"law_school": ("K",), "strings": ("U", "U2")}


def _cold_start(model, evidence, config, names):
    """Where a cold call starts each chain, laid out like one kept draw."""
    order = require_valid(model)
    n = len(next(iter(evidence.values())))
    target = counterfactual._Target(model, evidence, n, order, config.chains)
    cont = target.cont_values(np.zeros((target.n, target.free_dim)))
    return np.stack([cont[:, target.cont.index(name)].reshape(config.chains, n).T
                     for name in names], axis=-1)


@pytest.mark.parametrize("name", sorted(_STARTED))
def test_a_start_at_the_cold_start_reproduces_the_cold_call(name):
    model, evidence, config = _abduction_fixture(name)
    names = _STARTED[name]
    cold = abduct_records(model, evidence, config, names)
    started = abduct_records(model, evidence, config, names,
                             _start=_cold_start(model, evidence, config, names))
    np.testing.assert_array_equal(started.draws, cold.draws)
    np.testing.assert_array_equal(started.acceptance, cold.acceptance)


def test_a_start_moves_the_chains():
    model, evidence, config = _abduction_fixture("law_school")
    cold = abduct_records(model, evidence, replace(config, burn_in=0), ("K",))
    far = abduct_records(model, evidence, replace(config, burn_in=0), ("K",),
                         _start=np.full((10, 2, 1), 6.0))
    assert far.draws[:, 0, 0].mean() > cold.draws[:, 0, 0].mean() + 2.0


def test_a_started_call_in_a_reuse_scope_is_not_served_the_cold_result():
    model, evidence = _law_evidence()
    start = np.full((6, _REUSE_CFG.chains, 1), 1.5)
    outside = abduct_records(model, evidence, _REUSE_CFG, ("K",), _start=start)
    with counterfactual._reuse_passes():
        cold = abduct_records(model, evidence, _REUSE_CFG, ("K",))
        started = abduct_records(model, evidence, _REUSE_CFG, ("K",), _start=start)
        again = abduct_records(model, evidence, _REUSE_CFG, ("K",))
    assert started is not cold and again is cold
    assert not np.array_equal(started.draws, cold.draws)
    np.testing.assert_array_equal(started.draws, outside.draws)
    np.testing.assert_array_equal(started.acceptance, outside.acceptance)
