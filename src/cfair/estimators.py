"""Regression and latent-variable estimators.

Design matrices prepend an intercept and one-hot encode string-valued
columns (first category dropped, categories sorted alphabetically); numeric
finite domains stay numeric so the coding matches the scalar-weight equation
families. Linear fits use normal equations with a 1e-8 ridge jitter; logistic
and Poisson fits use IRLS.

fit_level2_latent estimates a one-latent model (latent ~ N(0,1) feeding each
observed child) by Monte Carlo EM: per-record posterior chains over the
latent alternate with maximum-likelihood parameter updates on the
draw-augmented data, 50 outer iterations. The chains persist across
iterations (Wei & Tanner 1990), and after each update the draws' mean and
scale are folded into the children (PX-EM, Liu, Rubin & Wu 1998), with the
latent's sign fixed by constraining the first linear child's latent weight
to be positive.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from . import rng
from .counterfactual import McmcConfig, PosteriorDraws, _stacked, abduct_records
from .dataset import Dataset
from .errors import (
    DegenerateScale,
    DimensionMismatch,
    EmptyInputs,
    SeparationDetected,
)
from .scm import (
    CausalModel,
    LinearGaussian,
    NormalPrior,
    PoissonLogLink,
    StructuralEquation,
    require_valid,
)

_JITTER = 1e-8
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 100
_SEPARATION_BOUND = 30.0
_EM_ITERATIONS = 50
_SCALE_FLOOR = 1e-6


@dataclass(frozen=True)
class DesignMatrix:
    matrix: np.ndarray
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _is_categorical(col: np.ndarray) -> bool:
    return col.dtype.kind not in "fiub"


def categories_of(col: np.ndarray, domain: tuple | None = None) -> tuple[str, ...]:
    values = domain if domain is not None else sorted({str(v) for v in col.tolist()})
    return tuple(sorted(str(v) for v in values))


def design_matrix(data: Dataset, columns,
                  encoders: dict[str, tuple[str, ...]] | None = None) -> tuple[DesignMatrix, dict]:
    """Build (design, encoders): an intercept, then the columns. encoders maps
    column -> category labels used.

    Passing a previous call's encoders reproduces the same coding on new data.
    """
    columns = list(columns)
    if not columns:
        raise EmptyInputs("no design columns selected")
    used: dict[str, tuple[str, ...]] = {}
    blocks, labels = [np.ones((data.n, 1))], ["intercept"]
    for name in columns:
        col = data.column(name)
        known = (encoders or {}).get(name)
        if known is None and not _is_categorical(col):
            blocks.append(col.astype(np.float64)[:, None])
            labels.append(name)
            continue
        cats = known if known is not None else categories_of(col, data.domains.get(name))
        used[name] = cats
        as_str = np.array([str(v) for v in col.tolist()])
        for cat in cats[1:]:  # first category (alphabetically) dropped
            blocks.append((as_str == cat).astype(np.float64)[:, None])
            labels.append(f"{name}={cat}")
    return DesignMatrix(np.hstack(blocks), tuple(labels)), used


@dataclass
class LinearFit:
    labels: tuple[str, ...]
    weights: np.ndarray
    residual_std: float
    warning: str | None = None

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] != len(self.weights):
            raise DimensionMismatch(
                f"design has {matrix.shape[1]} columns, fit has {len(self.weights)}")
        return matrix @ self.weights

    def coefficient(self, label: str) -> float:
        return float(self.weights[self.labels.index(label)])


def _solve_ridge(xtx: np.ndarray, xty: np.ndarray) -> np.ndarray:
    return np.linalg.solve(xtx + _JITTER * np.eye(xtx.shape[0]), xty)


def _targets(x: np.ndarray, y) -> np.ndarray:
    """y as float64, checked to hold one target per row of x and at least one."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) != x.shape[0]:
        raise DimensionMismatch(f"{len(y)} targets for {x.shape[0]} rows")
    if len(y) == 0:
        raise EmptyInputs("no rows to fit")
    return y


def ols_fit(design: DesignMatrix, y: np.ndarray) -> LinearFit:
    x = design.matrix
    y = _targets(x, y)
    w = _solve_ridge(x.T @ x, x.T @ y)
    resid = y - x @ w
    return LinearFit(design.labels, w, float(np.sqrt(np.mean(resid ** 2))))


def logistic_fit(design: DesignMatrix, y: np.ndarray) -> LinearFit:
    x = design.matrix
    y = _targets(x, y)
    if not set(np.unique(y)).issubset({0.0, 1.0}):
        raise DimensionMismatch("logistic fit needs 0/1 targets")
    if np.all(y == y[0]):
        raise DimensionMismatch("logistic fit needs both classes present")
    w = np.zeros(x.shape[1])
    for _ in range(_IRLS_MAX_ITER):
        eta = x @ w
        p = expit(eta)
        wls = np.clip(p * (1.0 - p), 1e-10, None)
        step = _solve_ridge(x.T @ (x * wls[:, None]), x.T @ (y - p))
        w = w + step
        if np.max(np.abs(step)) < _IRLS_TOL:
            break
    warning = None
    if np.max(np.abs(w)) > _SEPARATION_BOUND:
        warning = "SeparationDetected"
        warnings.warn(f"logistic weights exceed {_SEPARATION_BOUND}; data may be separable",
                      SeparationDetected)
    p = expit(x @ w)
    return LinearFit(design.labels, w, float(np.sqrt(np.mean((y - p) ** 2))), warning)


def poisson_fit(design: DesignMatrix, y: np.ndarray) -> LinearFit:
    """Poisson regression with log link (used by the latent-model M-step)."""
    x = design.matrix
    y = _targets(x, y)
    w = np.zeros(x.shape[1])
    w[0] = np.log(max(np.mean(y), 1e-8)) if design.labels[0] == "intercept" else 0.0
    for _ in range(_IRLS_MAX_ITER):
        eta = np.clip(x @ w, -30.0, 30.0)
        lam = np.exp(eta)
        step = _solve_ridge(x.T @ (x * lam[:, None]), x.T @ (y - lam))
        w = w + step
        if np.max(np.abs(step)) < _IRLS_TOL:
            break
    lam = np.exp(np.clip(x @ w, -30.0, 30.0))
    return LinearFit(design.labels, w, float(np.sqrt(np.mean((y - lam) ** 2))))


def _residual_fits(data: Dataset, targets, regressors) -> dict[str, tuple[LinearFit, np.ndarray]]:
    """Per target, its OLS fit on an intercept plus the regressors, and its residual."""
    design, _ = design_matrix(data, regressors)
    fits = {}
    for target in targets:
        y = data.numeric(target)
        fit = ols_fit(design, y)
        fits[target] = fit, y - fit.predict(design.matrix)
    return fits


def level3_residuals(data: Dataset, targets, regressors) -> Dataset:
    """Append eps_<target> columns: each target minus its fit on the regressors.

    The regression uses an intercept plus the (possibly one-hot) regressors,
    so residuals are empirically orthogonal to the regressor design.
    """
    fits = _residual_fits(data, targets, regressors)
    return data.with_columns({f"eps_{t}": eps for t, (_, eps) in fits.items()})


# ---------------------------------------------------------------------------
# Monte Carlo EM for a single-latent model


@dataclass
class LatentModelFit:
    """Fitted latent-variable model plus per-record latent draws.

    The draws are the latent's posterior under the fitted model given the
    training evidence, sampled with the full config on the first read of
    k_draws, acceptance or latent_means(), and kept; a fit that only reads
    the model samples none.
    """

    model: CausalModel
    latent: str
    params: dict[str, dict]
    diagnostics: dict
    evidence: dict[str, np.ndarray] = field(repr=False)
    config: McmcConfig

    @functools.cached_property
    def _posterior(self) -> PosteriorDraws:
        return abduct_records(self.model, self.evidence, self.config, names=(self.latent,))

    @functools.cached_property
    def k_draws(self) -> np.ndarray:
        """(records, draws) latent draws."""
        return self._posterior.draws[:, :, 0].astype(np.float64)

    @property
    def acceptance(self) -> np.ndarray:
        """(records, chains) MH acceptance rates of the draws."""
        return self._posterior.acceptance

    def latent_means(self) -> np.ndarray:
        return self.k_draws.mean(axis=1)


def _reparametrised(eq: StructuralEquation, parent: str, shift: float,
                    scale: float) -> StructuralEquation:
    """eq over parent' where parent = shift + scale * parent': the weight on
    `parent` times scale, the intercept plus that weight times shift."""
    w = eq.family.weights[eq.parents.index(parent)]
    weights = tuple(v * scale if p == parent else v for p, v in zip(eq.parents, eq.family.weights))
    return StructuralEquation(eq.child, eq.parents,
                              replace(eq.family, intercept=eq.family.intercept + w * shift,
                                      weights=weights))


def _equation_params(eq: StructuralEquation) -> dict:
    fam = eq.family
    entry = {"intercept": fam.intercept, "weights": dict(zip(eq.parents, fam.weights))}
    if isinstance(fam, LinearGaussian):
        entry["noise_std"] = fam.noise_std
    return entry


def fit_level2_latent(data: Dataset, template: CausalModel,
                      config: McmcConfig = McmcConfig()) -> LatentModelFit:
    """Estimate the parameters of a one-latent template by Monte Carlo EM.

    The template fixes the structure: exactly one background latent with a
    N(0, 1) prior, and LinearGaussian or PoissonLogLink children whose parents
    are the latent and observed columns of `data`; the first LinearGaussian
    child fixes the latent's sign. 50 outer iterations. The E-step runs one
    chain per record over the latent (burn_in max(20, config.burn_in // 10),
    kept max(5, config.kept // 10), thin min(config.thin, 2)); the first
    iteration starts cold, and each later one continues every chain from its
    last draw with a burn-in of only `thin` steps. The M-step refits each
    child on the draw-augmented records, then folds the draws' mean and
    standard deviation into the children (PX-EM: latent weight times the
    deviation, intercept plus that weight times the mean), negating the
    latent if the first linear child's weight is negative; the chains' last
    draws go through the same map. Raises DegenerateScale if a fitted noise
    scale falls below 1e-6. Deterministic given (data, config.seed); the
    returned fit samples its draws with the full `config` when first read.
    """
    order = require_valid(template)
    if len(template.background) != 1:
        raise DimensionMismatch("latent fitting expects exactly one background variable")
    latent = template.background[0]
    prior = template.prior_map[latent]
    if not isinstance(prior, NormalPrior) or (prior.mean, prior.std) != (0.0, 1.0):
        raise DimensionMismatch(f"{latent} must carry a N(0, 1) prior")
    children = [eq for eq in template.equations if latent in eq.parents]
    if not children:
        raise EmptyInputs("no child equation uses the latent")
    for eq in children:
        if not isinstance(eq.family, (LinearGaussian, PoissonLogLink)):
            raise DimensionMismatch(f"{eq.child}: latent children must be linear or Poisson")
    first_linear = next((eq.child for eq in children if isinstance(eq.family, LinearGaussian)),
                        None)
    if first_linear is None:
        raise DimensionMismatch(f"{latent} needs a LinearGaussian child to fix its sign")

    evidence_cols = {name: data.column(name) for name in order
                     if name != latent and name in data.data}
    if data.n == 0:
        raise EmptyInputs("empty dataset")

    # start from the template's own parameters, a unit noise scale where it has none
    fitted = {}
    for eq in children:
        if isinstance(eq.family, LinearGaussian) and not eq.family.noise_std > 0:
            eq = StructuralEquation(eq.child, eq.parents, replace(eq.family, noise_std=1.0))
        fitted[eq.child] = eq

    def fitted_model() -> CausalModel:
        return CausalModel(template.variables,
                           [fitted.get(eq.child, eq) for eq in template.equations],
                           template.priors)

    def latent_weight(child: str) -> float:
        eq = fitted[child]
        return eq.family.weights[eq.parents.index(latent)]

    em_cfg = replace(config, chains=1,
                     burn_in=max(20, config.burn_in // 10),
                     kept=max(5, config.kept // 10),
                     thin=min(config.thin, 2))

    model = fitted_model()
    trace = []
    start = None
    for it in range(_EM_ITERATIONS):
        e_cfg = replace(em_cfg, seed=rng.child_seed(config.seed, rng.TAG_EM, it))
        if start is not None:
            e_cfg = replace(e_cfg, burn_in=e_cfg.thin)
        post = abduct_records(model, evidence_cols, e_cfg, names=(latent,), _start=start)
        aug = _stacked(post.draws, (latent,), evidence_cols)
        aug_data = Dataset(tuple(aug), aug, dict(data.domains))

        for eq in children:
            design, _ = design_matrix(aug_data, list(eq.parents))
            y = aug_data.numeric(eq.child)
            if isinstance(eq.family, LinearGaussian):
                fit = ols_fit(design, y)
                sigma = float(fit.residual_std)
                if sigma < _SCALE_FLOOR:
                    raise DegenerateScale(f"{eq.child}: fitted noise scale {sigma:.2e}")
                family = replace(eq.family, noise_std=sigma)
            else:
                fit = poisson_fit(design, y)
                family = eq.family
            family = replace(family, intercept=fit.coefficient("intercept"),
                             weights=tuple(fit.coefficient(p) for p in eq.parents))
            fitted[eq.child] = StructuralEquation(eq.child, eq.parents, family)

        # PX-EM: refit the latent's mean and scale from the draws and fold them
        # into the children, with the sign flip, so the latent stays N(0, 1);
        # each chain's last draw goes through the same map to continue from
        draws = post.draws[:, :, 0]
        shift, scale = float(draws.mean()), float(draws.std())
        if latent_weight(first_linear) < 0.0:
            scale = -scale
        fitted = {child: _reparametrised(eq, latent, shift, scale)
                  for child, eq in fitted.items()}
        last = post.draws.reshape(data.n, e_cfg.chains, e_cfg.kept, 1)[:, :, -1:, 0]
        start = (last - shift) / scale
        model = fitted_model()
        trace.append(latent_weight(first_linear))

    return LatentModelFit(model=model, latent=latent,
                          params={child: _equation_params(eq) for child, eq in fitted.items()},
                          diagnostics={"latent_weight_trace": trace},
                          evidence=evidence_cols, config=config)
