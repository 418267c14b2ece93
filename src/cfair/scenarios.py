"""Synthetic benchmark scenarios with analytic oracles.

Three linear scenarios share the spine X = alpha*A + beta*U with a centered
binary protected attribute (+-sqrt(v_a), so Var(A) = v_a) and U ~ N(0, v_u):

    red_car      Y = gamma*U
    high_crime   Y = gamma*U + theta*X
    university   Y = gamma*U + eta*A

For these, oracle() returns population regression weights and fairness
verdicts in closed form. The two richer scenarios are simulation-only:

    law_school   latent skill K feeding GPA (Gaussian), LSAT (Poisson log
                 link) and FYA (Gaussian outcome), with race (integer codes,
                 configurable arity) and sex (0/1) as protected causes
    loan         backgrounds P (prior default), Q (qualified); Employed is
                 the deterministic indicator Q=1 and not (P=1 and A=1); Y is
                 a logit draw on Employed

Per-category weight pairs like sex->GPA (0.93, 1.06) are encoded over S in
{0, 1} as intercept + (difference)*S, which reproduces the category means
exactly. Sampled frames include the background columns (the generating
truth); drop them to emulate an observational dataset, as the CLI recipes do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dataset import Dataset
from .errors import DimensionMismatch, UnsupportedScenario
from .scm import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    DeterministicTable,
    LinearGaussian,
    NormalPrior,
    PoissonLogLink,
    Role,
    StructuralEquation,
    Variable,
    _require_integer,
    ancestral_sample,
    require_valid,
)

_LINEAR = ("red_car", "high_crime", "university")

_DEFAULTS: dict[str, dict] = {
    "red_car": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "v_a": 1.0, "v_u": 1.0},
    "high_crime": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "theta": 1.0,
                   "v_a": 1.0, "v_u": 1.0},
    "university": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "eta": 1.0,
                   "v_a": 1.0, "v_u": 1.0},
    # free weights; defaults keep FYA variance near 1 and give the latent
    # aptitude enough signal that the qualitative error ordering emerges.
    # race drives GPA and FYA but not the LSAT rate: a Poisson rate shift
    # produces integer jumps that no additive correction can absorb, so a
    # nonzero default would make the additive recipe unfair by construction
    "law_school": {"race_arity": 2,
                   "b_g": 0.0, "w_gk": 1.0, "w_gr": 1.0, "w_gs": (0.93, 1.06),
                   "sigma_g": 0.5,
                   "b_l": 0.0, "w_lk": 0.3, "w_lr": 0.0, "w_ls": (1.1, 1.1),
                   "w_fk": 0.8, "w_fr": 1.2, "w_fs": (0.0, 0.1)},
    "loan": {"p_a": 0.5, "p_p": 0.5, "p_q": 0.5,
             "y_intercept": -1.0, "y_weight": 2.0},
}

SCENARIO_KINDS = tuple(sorted(_DEFAULTS))


@dataclass(frozen=True)
class ScenarioParams:
    kind: str
    params: dict = field(default_factory=dict)
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _DEFAULTS:
            raise UnsupportedScenario(f"unknown scenario {self.kind!r}")
        _require_integer(self.n, "n")
        _require_integer(self.seed, "seed")
        if self.n < 0:
            raise DimensionMismatch(f"n must be at least 0, got {self.n!r}")
        unknown = set(self.params) - set(_DEFAULTS[self.kind])
        if unknown:
            raise DimensionMismatch(
                f"{self.kind} does not take parameters {sorted(unknown)}")
        merged = {**_DEFAULTS[self.kind], **self.params}
        for key in ("v_a", "v_u", "sigma_g"):
            if key in merged and not merged[key] > 0.0:
                raise DimensionMismatch(f"{key} must be positive")
        for key in ("p_a", "p_p", "p_q"):
            if key in merged and not 0.0 <= merged[key] <= 1.0:
                raise DimensionMismatch(f"{key} must lie in [0, 1]")
        object.__setattr__(self, "params", merged)

    def __getitem__(self, key: str):
        return self.params[key]


@dataclass(frozen=True)
class OracleBundle:
    """Population values for the linear scenarios, each tagged with its formula."""

    values: dict[str, float]
    fair_weights: dict[str, float]
    verdicts: dict[str, str]
    formulas: dict[str, str]


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


def _linear_model(p: ScenarioParams) -> CausalModel:
    root = math.sqrt(p["v_a"])
    theta = p.params.get("theta", 0.0)
    eta = p.params.get("eta", 0.0)
    y_parents, y_weights = ["U"], [p["gamma"]]
    if theta:
        y_parents.append("X")
        y_weights.append(theta)
    if eta:
        y_parents.append("A")
        y_weights.append(eta)
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(-root, root)),
                   Variable("U", Role.BACKGROUND),
                   Variable("X", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME)),
        equations=(StructuralEquation("X", ("A", "U"),
                                      LinearGaussian(0.0, (p["alpha"], p["beta"]), 0.0)),
                   StructuralEquation("Y", tuple(y_parents),
                                      LinearGaussian(0.0, tuple(y_weights), 0.0))),
        priors={"A": CategoricalPrior((-root, root), (0.5, 0.5)),
                "U": NormalPrior(0.0, math.sqrt(p["v_u"]))},
    )


def _law_school_model(p: ScenarioParams) -> CausalModel:
    arity = int(p["race_arity"])
    if arity < 2:
        raise DimensionMismatch("race_arity must be at least 2")
    race_domain = tuple(range(arity))
    race_probs = tuple(1.0 / arity for _ in race_domain)
    g0, g1 = _pair(p["w_gs"])
    l0, l1 = _pair(p["w_ls"])
    f0, f1 = _pair(p["w_fs"])
    return CausalModel(
        variables=(Variable("K", Role.BACKGROUND),
                   Variable("R", Role.PROTECTED, domain=race_domain),
                   Variable("S", Role.PROTECTED, domain=(0, 1)),
                   Variable("GPA", Role.OBSERVED),
                   Variable("LSAT", Role.OBSERVED),
                   Variable("FYA", Role.OUTCOME)),
        equations=(
            StructuralEquation("GPA", ("K", "R", "S"),
                               LinearGaussian(p["b_g"] + g0,
                                              (p["w_gk"], p["w_gr"], g1 - g0),
                                              p["sigma_g"])),
            StructuralEquation("LSAT", ("K", "R", "S"),
                               PoissonLogLink(p["b_l"] + l0,
                                              (p["w_lk"], p["w_lr"], l1 - l0))),
            StructuralEquation("FYA", ("K", "R", "S"),
                               LinearGaussian(f0, (p["w_fk"], p["w_fr"], f1 - f0),
                                              1.0)),
        ),
        priors={"K": NormalPrior(0.0, 1.0),
                "R": CategoricalPrior(race_domain, race_probs),
                "S": CategoricalPrior((0, 1), (0.5, 0.5))},
    )


def _loan_model(p: ScenarioParams) -> CausalModel:
    # employed unless simultaneously a prior defaulter and in the protected class
    table = {(a, pp, q): int(q == 1 and not (pp == 1 and a == 1))
             for a in (0, 1) for pp in (0, 1) for q in (0, 1)}
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(0, 1)),
                   Variable("P", Role.BACKGROUND, domain=(0, 1)),
                   Variable("Q", Role.BACKGROUND, domain=(0, 1)),
                   Variable("Employed", Role.OBSERVED, domain=(0, 1)),
                   Variable("Y", Role.OUTCOME, domain=(0, 1))),
        equations=(StructuralEquation("Employed", ("A", "P", "Q"),
                                      DeterministicTable(table)),
                   StructuralEquation("Y", ("Employed",),
                                      BernoulliLogit(p["y_intercept"],
                                                     (p["y_weight"],)))),
        priors={"A": CategoricalPrior((0, 1), (1.0 - p["p_a"], p["p_a"])),
                "P": CategoricalPrior((0, 1), (1.0 - p["p_p"], p["p_p"])),
                "Q": CategoricalPrior((0, 1), (1.0 - p["p_q"], p["p_q"]))},
    )


def build_model(params: ScenarioParams) -> CausalModel:
    if params.kind in _LINEAR:
        model = _linear_model(params)
    elif params.kind == "law_school":
        model = _law_school_model(params)
    else:
        model = _loan_model(params)
    require_valid(model)
    return model


def generate(params: ScenarioParams) -> tuple[CausalModel, Dataset]:
    """Scenario model plus n ancestrally sampled rows (background columns included)."""
    model = build_model(params)
    return model, ancestral_sample(model, params.n, params.seed)


def oracle(params: ScenarioParams) -> OracleBundle:
    """Population regression weights and fairness verdicts for the linear trio.

    The full regression of Y on (X, A) is exact in these scenarios, so its
    prediction decomposes as coef_u * U + coef_a * a; a baseline is
    counterfactually fair exactly when its coef_a vanishes.
    """
    if params.kind not in _LINEAR:
        raise UnsupportedScenario(
            f"{params.kind} has no closed-form oracle; use simulation")
    alpha, beta, gamma = params["alpha"], params["beta"], params["gamma"]
    v_a, v_u = params["v_a"], params["v_u"]
    theta = params.params.get("theta", 0.0)
    eta = params.params.get("eta", 0.0)
    v_x = alpha ** 2 * v_a + beta ** 2 * v_u

    lam = (gamma * beta * v_u + theta * v_x + eta * alpha * v_a) / v_x
    full_x = gamma / beta + theta
    full_a = eta - alpha * gamma / beta
    # substitute X = alpha*a + beta*U into each fitted prediction
    coef_u_full = gamma + theta * beta
    coef_a_full = alpha * theta + eta
    fair_u = gamma + theta * beta  # population regression of Y on U alone

    def verdict(coef_a: float) -> str:
        return "fair" if abs(coef_a) <= 1e-12 else "unfair"

    values = {
        "unaware_slope": lam,
        "full_weight_x": full_x,
        "full_weight_a": full_a,
        "full_coef_u": coef_u_full,
        "full_coef_a": coef_a_full,
        "unaware_coef_u": lam * beta,
        "unaware_coef_a": lam * alpha,
        "var_x": v_x,
    }
    formulas = {
        "unaware_slope": "(gamma*beta*v_u + theta*v_x + eta*alpha*v_a)/v_x",
        "full_weight_x": "gamma/beta + theta",
        "full_weight_a": "eta - alpha*gamma/beta",
        "full_coef_u": "gamma + theta*beta",
        "full_coef_a": "alpha*theta + eta",
        "unaware_coef_u": "unaware_slope*beta",
        "unaware_coef_a": "unaware_slope*alpha",
        "var_x": "alpha^2*v_a + beta^2*v_u",
        "fair_u": "gamma + theta*beta",
    }
    verdicts = {
        "full": verdict(coef_a_full),
        "unaware": verdict(lam * alpha),
        "fair_learning": "fair",
        "fair_add": "fair",
    }
    return OracleBundle(values=values, fair_weights={"U": fair_u},
                        verdicts=verdicts, formulas=formulas)
