import hashlib

import numpy as np
import pytest
from scipy import stats

from cfair import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    DeterministicTable,
    EvidenceOnBackground,
    LinearGaussian,
    McmcConfig,
    NormalPrior,
    PoissonLogLink,
    Role,
    ScenarioParams,
    StructuralEquation,
    UnattainableValue,
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
from helpers import batch_se, law_school, loan, red_car, single_latent_model, split_outcome_model

FAST = McmcConfig(chains=2, burn_in=200, kept=200, thin=2, seed=0)


# ---------------------------------------------------------------------------
# exact abduction


def test_noise_free_evidence_pins_the_latent():
    model, _ = red_car(n=1)
    post = abduct_exact(model, {"A": 1.0, "X": 2.5})
    i = post.names.index("U")
    assert post.point_mass()[i]
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
    quad_mean = float(np.trapezoid(w * k, k) / np.trapezoid(w, k))

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


def _digest(arr) -> str:
    """SHA-256 of dtype, shape and values; object cells hash as type-tagged values."""
    arr = np.asarray(arr)
    h = hashlib.sha256(f"{arr.dtype}{arr.shape}".encode())
    if arr.dtype == object:
        for v in arr.ravel().tolist():
            if isinstance(v, str):
                h.update(b"s" + v.encode() + b"\0")
            elif isinstance(v, (int, np.integer)):
                h.update(b"i%d\0" % int(v))
            else:
                h.update(b"f" + float(v).hex().encode() + b"\0")
    else:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


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


def _abduction_fixture(name):
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
# step's key in full; drawing the same keys in blocks must reproduce them
ABDUCTION_DIGESTS = {
    "loan": ("19198d19a19ed999", "53f7a11ca91762ef"),
    "law_school": ("bb48b4ac975620ac", "0b9d77f58c109a8e"),
    "indicator": ("d3fb8b3cdddd3de0", "41704422471b59ab"),
    "strings": ("dd2fc7cb2e3b611f", "7ac7af70c00c6929"),
}


@pytest.mark.parametrize("block_values", [1, 70, None])
@pytest.mark.parametrize("name", sorted(ABDUCTION_DIGESTS))
def test_abduct_records_is_byte_identical_for_any_block_size(name, block_values, monkeypatch):
    # 1 value per block gives one step per block; 70 splits every fixture's
    # chain into blocks of a few steps that straddle burn-in and thinning
    if block_values is not None:
        monkeypatch.setattr(counterfactual, "_BLOCK_VALUES", block_values)
    model, evidence, config = _abduction_fixture(name)
    post = abduct_records(model, evidence, config)
    assert (_digest(post.draws), _digest(post.acceptance)) == ABDUCTION_DIGESTS[name]


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
# with the MH sampler's; the shared elimination must reproduce them
EXACT_DIGESTS = {
    "pdm_red_car": "2293e84c6186090c",
    "pdm_redundant": "ca3618625b248575",
    "exogenous_draws": "bfc215c4c53a4887",
    "counterfactual_sample": "271b981ac27814a5",
    "abduct_exact_mean": "fc5b31f0084ccc4a",
    "abduct_exact_cov": "ba88500ddf563b55",
}


@pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
def test_exact_route_is_byte_identical(name):
    assert _digest(_exact_outputs(name)) == EXACT_DIGESTS[name]
