"""Fairness audits over fitted predictors.

The distributional audits compare, per record, the predictor's output under
the factual protected assignment against the output under a counterfactual
assignment, with the exogenous state abducted from that record's evidence.
Both branches share prediction noise variable-by-variable (same seed, same
keying), so a predictor built from non-descendants of the protected set comes
out identical draw-by-draw, not just in distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, gammaln, log_expit, logit

from . import rng
from .counterfactual import (
    McmcConfig,
    _exogenous_names,
    exact_available,
    exogenous_draws,
    posterior_draw_matrix,
)
from .dataset import Dataset
from .errors import (
    ConstraintNotInvertible,
    DimensionMismatch,
    EmptyGroup,
    EmptyInputs,
    InvalidPath,
    NoAcceptedSamples,
    SingularConditioning,
    UnattainableValue,
    ZeroPosteriorMass,
)
from .learning import FairPredictor, fair_predict
from .scm import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    DeterministicTable,
    LinearGaussian,
    PoissonLogLink,
    Role,
    StructuralEquation,
    Variable,
    _linear_predictor,
    ancestral_sample,
    evaluate_equation,
    forward_eval,
    intervene,
    require_valid,
)

_TAG_SUBSAMPLE = 31
_TAG_BRANCH = 33
_TAG_PATH = 43
_TAG_SUFF = 51
_TAG_ACE = 61

_ACE_BAND = 0.05
_STRICT_TOL = 1e-9
_MATCH_TOL = 1e-6
_MAX_ENUM = 1_000_000


def ks_2sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_t |F_x(t) - F_y(t)|."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if len(x) == 0 or len(y) == 0:
        raise EmptyInputs("KS statistic needs non-empty samples")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def _resolution_ks(x: np.ndarray, y: np.ndarray, tie_tol: float) -> float:
    """KS at a finite resolution: equal-size samples whose sorted values differ
    by at most tie_tol everywhere count as identical.

    Zero-noise models give degenerate per-record posteriors, so a fitted
    predictor that is fair in population terms still shows an O(estimation
    error) atom shift; plain KS would read any such shift as 1.0. tie_tol sets
    the smallest shift the audit can resolve.
    """
    if tie_tol > 0.0 and len(x) == len(y):
        if np.max(np.abs(np.sort(x) - np.sort(y))) <= tie_tol:
            return 0.0
    return ks_2sample(x, y)


def _py(v):
    return v.item() if isinstance(v, np.generic) else v


@dataclass
class FairnessReport:
    """Outcome of one audit criterion.

    per_record carries one dict per audited record; densities maps branch name
    to the per-record mean predictions, ready for plotting or CSV export.
    """

    criterion: str
    params: dict
    per_record: list[dict]
    aggregate: float
    threshold: float | None
    passed: bool | None
    densities: dict[str, list[float]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"criterion": self.criterion,
                "params": {k: _py(v) for k, v in self.params.items()},
                "aggregate": _py(self.aggregate),
                "threshold": _py(self.threshold),
                "passed": self.passed,
                "per_record": self.per_record,
                "densities": {k: [float(v) for v in vals]
                              for k, vals in self.densities.items()}}

    def density_rows(self) -> list[tuple[float, str]]:
        rows = []
        for branch in sorted(self.densities):
            rows.extend((float(v), branch) for v in self.densities[branch])
        return rows


def _group_mask(data: Dataset, assignment: dict) -> np.ndarray:
    mask = np.ones(data.n, dtype=bool)
    for name, value in assignment.items():
        col = data.column(name)
        if isinstance(value, str):
            mask &= np.array([v == value for v in col.tolist()])
        else:
            mask &= (col.astype(np.float64) == float(value))
    return mask


def _subsample(indices: np.ndarray, max_records: int, seed: int) -> np.ndarray:
    if len(indices) <= max_records:
        return indices
    gen = rng.generator(seed, _TAG_SUBSAMPLE)
    pick = gen.choice(len(indices), size=max_records, replace=False)
    return indices[np.sort(pick)]


def _evidence_columns(model: CausalModel, data: Dataset) -> dict[str, np.ndarray]:
    usable = set(model.protected) | set(model.names(Role.OBSERVED))
    return {c: data.column(c) for c in data.columns if c in usable}


def _branch_scores(predictor: FairPredictor, model: CausalModel, sub: Dataset,
                   intervention: dict, latent: tuple[str, ...], exo_draws: np.ndarray,
                   seed: int, salt: int) -> np.ndarray:
    """(records, draws) predictor outputs under do(intervention), noise shared by key."""
    iv_model = intervene(model, intervention)
    n_rec, m = exo_draws.shape[0], exo_draws.shape[1]
    given: dict[str, np.ndarray] = {}
    for j, name in enumerate(latent):
        given[name] = exo_draws[:, :, j].reshape(-1)
    for name in _exogenous_names(model):
        if name in sub.data and name not in given:
            given[name] = np.repeat(sub.column(name), m)
    given = {k: v for k, v in given.items() if k not in intervention}
    values = forward_eval(iv_model, given, n_rec * m, seed, salt=salt)
    inputs = {name: values[name] for name in predictor.manifest.input_order()}
    return predictor.score(inputs).reshape(n_rec, m)


def _paired_scores(model: CausalModel, predictor: FairPredictor, data: Dataset,
                   a: dict, a_prime: dict, config: McmcConfig, draws: int,
                   max_records: int):
    """Subsample the a-group, abduct, and score both branches with shared noise."""
    require_valid(model)
    if set(a) != set(a_prime):
        raise DimensionMismatch("a and a_prime must assign the same variables")
    mask = _group_mask(data, a)
    indices = np.flatnonzero(mask)
    if len(indices) == 0:
        raise EmptyGroup(f"no records with {a}")
    indices = _subsample(indices, max_records, config.seed)
    sub = data.take(indices)

    evidence = _evidence_columns(model, sub)
    latent = tuple(n for n in _exogenous_names(model) if n not in evidence)
    cfg = replace(config, kept=max(1, math.ceil(draws / config.chains)))
    exo = posterior_draw_matrix(model, evidence, cfg, latent)[:, :draws, :]

    seed_fwd = rng.child_seed(config.seed, _TAG_BRANCH)
    scores_f = _branch_scores(predictor, model, sub, a, latent, exo,
                              seed_fwd, _TAG_BRANCH)
    scores_cf = _branch_scores(predictor, model, sub, a_prime, latent, exo,
                               seed_fwd, _TAG_BRANCH)
    return indices, scores_f, scores_cf


def _tie_tolerance(scores_f: np.ndarray, scores_cf: np.ndarray,
                   tie_frac: float) -> float:
    return tie_frac * float(np.std(np.concatenate([scores_f.ravel(),
                                                   scores_cf.ravel()])))


def cf_fairness_test(model: CausalModel, predictor: FairPredictor, data: Dataset,
                     a: dict, a_prime: dict, config: McmcConfig = McmcConfig(),
                     draws: int = 1000, threshold: float = 0.05,
                     max_records: int = 200, tie_frac: float = 0.08) -> FairnessReport:
    """Per-record KS distance between factual and counterfactual predictions.

    Records with the factual assignment `a` are audited (subsampled to
    max_records, seeded); the aggregate is the worst per-record KS statistic
    and the audit passes when it stays at or below the threshold. Sorted
    prediction samples closer than tie_frac times the pooled prediction spread
    count as identical, so fitted-weight noise on degenerate posteriors does
    not register as unfairness.
    """
    indices, scores_f, scores_cf = _paired_scores(
        model, predictor, data, a, a_prime, config, draws, max_records)
    tie_tol = _tie_tolerance(scores_f, scores_cf, tie_frac)
    per_record = []
    ks_values = np.empty(len(indices))
    for i, ridx in enumerate(indices):
        ks = _resolution_ks(scores_f[i], scores_cf[i], tie_tol)
        ks_values[i] = ks
        per_record.append({"record": int(ridx), "ks": float(ks),
                           "mean_factual": float(scores_f[i].mean()),
                           "mean_counterfactual": float(scores_cf[i].mean()),
                           "mean_shift": float(scores_f[i].mean() - scores_cf[i].mean())})
    aggregate = float(np.max(ks_values))
    return FairnessReport(
        criterion="counterfactual_ks",
        params={"a": a, "a_prime": a_prime, "draws": draws, "seed": config.seed,
                "max_records": max_records, "n_audited": len(indices),
                "tie_tol": tie_tol},
        per_record=per_record, aggregate=aggregate, threshold=threshold,
        passed=bool(aggregate <= threshold),
        densities={"factual": [r["mean_factual"] for r in per_record],
                   "counterfactual": [r["mean_counterfactual"] for r in per_record]})


def strict_cf_check(model: CausalModel, predictor: FairPredictor, data: Dataset,
                    a: dict, a_prime: dict, config: McmcConfig = McmcConfig(),
                    draws: int = 200, tol: float = _STRICT_TOL,
                    max_records: int = 200) -> FairnessReport:
    """Draw-by-draw invariance: every paired draw must differ by at most tol.

    Passes only for predictors that are functions of non-descendants of the
    intervened set; distribution-level equality is not enough here.
    """
    indices, scores_f, scores_cf = _paired_scores(
        model, predictor, data, a, a_prime, config, draws, max_records)
    diff = np.abs(scores_f - scores_cf)
    violating = diff > tol
    per_record = [{"record": int(ridx), "max_abs_diff": float(diff[i].max()),
                   "violations": int(violating[i].sum())}
                  for i, ridx in enumerate(indices)]
    aggregate = float(violating.mean())  # fraction of violating draws
    return FairnessReport(
        criterion="strict_invariance",
        params={"a": a, "a_prime": a_prime, "draws": draws, "seed": config.seed,
                "tol": tol, "max_records": max_records, "n_audited": len(indices),
                "max_abs_diff": float(diff.max())},
        per_record=per_record, aggregate=aggregate, threshold=0.0,
        passed=bool(aggregate == 0.0),
        densities={"factual": [float(s.mean()) for s in scores_f],
                   "counterfactual": [float(s.mean()) for s in scores_cf]})


def _validate_paths(model: CausalModel, paths, a: dict) -> set[str]:
    eq_map = model.equation_map
    # empty path set is legal: nothing is declared unfair, everything is held
    on_path: set[str] = set()
    for path in paths:
        if len(path) < 2:
            raise InvalidPath(f"path {path} needs at least one edge")
        for name in path:
            model.variable(name)
        if path[0] not in a:
            raise InvalidPath(f"path {path} must start at an audited protected variable")
        for parent, child in zip(path, path[1:]):
            eq = eq_map.get(child)
            if eq is None or parent not in eq.parents:
                raise InvalidPath(f"no edge {parent} -> {child}")
        on_path.update(path[1:])
    return on_path


def path_cf_test(model: CausalModel, predictor: FairPredictor, data: Dataset,
                 paths, a: dict, a_prime: dict, config: McmcConfig = McmcConfig(),
                 draws: int = 1000, threshold: float = 0.05,
                 max_records: int = 200, tie_frac: float = 0.08) -> FairnessReport:
    """Path-specific audit: only the listed causal paths transmit the flip.

    Observables off every listed path are pinned to their factual values in
    both branches, so differences can only travel through the declared paths.
    Each path must be a chain of edges starting at an audited protected
    variable.
    """
    require_valid(model)
    on_path = _validate_paths(model, paths, a)
    mask = _group_mask(data, a)
    indices = np.flatnonzero(mask)
    if len(indices) == 0:
        raise EmptyGroup(f"no records with {a}")
    indices = _subsample(indices, max_records, config.seed)
    sub = data.take(indices)

    evidence = _evidence_columns(model, sub)
    latent = tuple(n for n in _exogenous_names(model) if n not in evidence)
    cfg = replace(config, kept=max(1, math.ceil(draws / config.chains)))
    exo = posterior_draw_matrix(model, evidence, cfg, latent)[:, :draws, :]
    held = [n for n in model.names(Role.OBSERVED) if n not in on_path and n in sub.data]

    all_f = np.empty((len(indices), exo.shape[1]))
    all_cf = np.empty_like(all_f)
    for i, ridx in enumerate(indices):
        pinned = {name: _py(sub.column(name)[i]) for name in held}
        iv_f = {**a, **pinned}
        iv_cf = {**a_prime, **pinned}
        seed_r = rng.child_seed(config.seed, _TAG_PATH, int(ridx))
        row = Dataset(sub.columns, {c: sub.data[c][i:i + 1] for c in sub.columns},
                      dict(sub.domains))
        exo_row = exo[i:i + 1]
        all_f[i] = _branch_scores(predictor, model, row, iv_f, latent, exo_row,
                                  seed_r, _TAG_PATH)[0]
        all_cf[i] = _branch_scores(predictor, model, row, iv_cf, latent, exo_row,
                                   seed_r, _TAG_PATH)[0]
    tie_tol = _tie_tolerance(all_f, all_cf, tie_frac)
    per_record = []
    ks_values = np.empty(len(indices))
    for i, ridx in enumerate(indices):
        ks_values[i] = _resolution_ks(all_f[i], all_cf[i], tie_tol)
        per_record.append({"record": int(ridx), "ks": float(ks_values[i]),
                           "mean_shift": float(all_f[i].mean() - all_cf[i].mean())})
    aggregate = float(np.max(ks_values))
    return FairnessReport(
        criterion="path_counterfactual_ks",
        params={"a": a, "a_prime": a_prime, "paths": [list(p) for p in paths],
                "held": held, "draws": draws, "seed": config.seed,
                "max_records": max_records, "n_audited": len(indices),
                "tie_tol": tie_tol},
        per_record=per_record, aggregate=aggregate, threshold=threshold,
        passed=bool(aggregate <= threshold),
        densities={"factual": [float(r.mean()) for r in all_f],
                   "counterfactual": [float(r.mean()) for r in all_cf]})


def group_gaps(predictor: FairPredictor, data: Dataset, outcome: str,
               a: dict, a_prime: dict, model: CausalModel | None = None,
               config: McmcConfig | None = None) -> dict:
    """Demographic parity and equalised odds gaps between the two groups.

    Predictions for manifests with background inputs need `model` (and
    optionally `config`) to form per-record posterior means. eo_gap is None
    unless the outcome column is 0/1; the predictive-parity diagnostic is None
    unless the head is logistic.
    """
    if predictor.manifest.background_inputs:
        if model is None:
            raise DimensionMismatch("background inputs need the model to predict")
        preds = fair_predict(predictor, model, data, config)
    else:
        preds = predictor.score({n: data.column(n)
                                 for n in predictor.manifest.input_order()})
    mask_a, mask_ap = _group_mask(data, a), _group_mask(data, a_prime)
    if not mask_a.any() or not mask_ap.any():
        raise EmptyGroup(f"empty group for {a} / {a_prime}")
    y = data.numeric(outcome)
    # logistic heads give verdict rates thresholded at 0.5; linear heads give means
    stat = (preds >= 0.5).astype(np.float64) if predictor.head == "logistic" else preds
    out = {"dp_gap": float(abs(stat[mask_a].mean() - stat[mask_ap].mean())),
           "eo_gap": None, "predictive_parity_gap": None,
           "n_a": int(mask_a.sum()), "n_a_prime": int(mask_ap.sum())}
    if set(np.unique(y)).issubset({0.0, 1.0}):
        pos_a, pos_ap = mask_a & (y == 1.0), mask_ap & (y == 1.0)
        if pos_a.any() and pos_ap.any():
            out["eo_gap"] = float(abs(stat[pos_a].mean() - stat[pos_ap].mean()))
        if predictor.head == "logistic":
            hi_a, hi_ap = mask_a & (stat == 1.0), mask_ap & (stat == 1.0)
            if hi_a.any() and hi_ap.any():
                out["predictive_parity_gap"] = float(
                    abs(y[hi_a].mean() - y[hi_ap].mean()))
    return out


def ftu_check(predictor: FairPredictor) -> bool:
    """Fairness through unawareness: no protected column enters the design."""
    if predictor.manifest.include_protected:
        return False
    for p in predictor.manifest.protected:
        for label in predictor.labels:
            if label == p or label.startswith(f"{p}="):
                return False
    return True


def _interventional_mean(model: CausalModel, predictor: FairPredictor,
                         x_evidence: dict, assignment: dict, n_draws: int,
                         config: McmcConfig) -> tuple[float, str, int]:
    iv_model = intervene(model, assignment)
    if exact_available(iv_model, x_evidence):
        draws = exogenous_draws(iv_model, x_evidence, n_draws, config)
        given = dict(draws)
        for name, value in x_evidence.items():
            given[name] = (np.full(n_draws, value, dtype=object)
                           if isinstance(value, str) else np.full(n_draws, float(value)))
        values = forward_eval(iv_model, given, n_draws,
                              rng.child_seed(config.seed, _TAG_ACE), salt=_TAG_ACE)
        inputs = {n: values[n] for n in predictor.manifest.input_order()}
        return float(predictor.score(inputs).mean()), "exact", n_draws
    sim = ancestral_sample(iv_model, n_draws,
                           rng.child_seed(config.seed, _TAG_ACE, 1))
    accept = np.ones(n_draws, dtype=bool)
    for name, value in x_evidence.items():
        col = sim.column(name)
        if model.variable(name).domain is None:
            accept &= np.abs(col.astype(np.float64) - float(value)) <= _ACE_BAND
        elif isinstance(value, str):
            accept &= np.array([v == value for v in col.tolist()])
        else:
            accept &= (col.astype(np.float64) == float(value))
    if not accept.any():
        raise NoAcceptedSamples(
            f"no simulated rows matched {x_evidence} within band {_ACE_BAND}")
    kept = sim.take(np.flatnonzero(accept))
    inputs = {n: kept.column(n) for n in predictor.manifest.input_order()}
    return float(predictor.score(inputs).mean()), "rejection", int(accept.sum())


def ace(model: CausalModel, predictor: FairPredictor, x_evidence: dict,
        a: dict, a_prime: dict, n_draws: int = 20000,
        config: McmcConfig = McmcConfig()) -> dict:
    """Average causal effect of the protected flip on the prediction given X = x.

    E[score | do(a), x] - E[score | do(a'), x]. Linear-Gaussian models take the
    exact conditioning route; otherwise rejection sampling with a +-0.05
    acceptance band per continuous evidence coordinate (exact match on finite
    domains).
    """
    require_valid(model)
    mean_a, method, n_a = _interventional_mean(
        model, predictor, x_evidence, a, n_draws, config)
    mean_ap, _, n_ap = _interventional_mean(
        model, predictor, x_evidence, a_prime, n_draws, config)
    return {"ace": mean_a - mean_ap, "mean_a": mean_a, "mean_a_prime": mean_ap,
            "method": method, "accepted_a": n_a, "accepted_a_prime": n_ap,
            "band": _ACE_BAND if method == "rejection" else 0.0}


# ---------------------------------------------------------------------------
# probability of sufficiency


def _score_equation(predictor: FairPredictor) -> StructuralEquation:
    labels = [lab for lab in predictor.labels if lab != "intercept"]
    if predictor.encoders or any("=" in lab for lab in labels):
        raise ConstraintNotInvertible("score equation needs numeric inputs only")
    theta0 = predictor.weights[list(predictor.labels).index("intercept")] \
        if "intercept" in predictor.labels else 0.0
    weights = tuple(float(predictor.weights[list(predictor.labels).index(lab)])
                    for lab in labels)
    return StructuralEquation("_score_", tuple(labels),
                              LinearGaussian(float(theta0), weights, 0.0))


def _pmf_factor(eq: StructuralEquation, values: dict[str, np.ndarray],
                observed, n: int) -> np.ndarray:
    fam = eq.family
    eta = _linear_predictor(eq, values, n)
    if isinstance(fam, BernoulliLogit):
        y = float(observed)
        return np.exp(np.where(y == 1.0, log_expit(eta), log_expit(-eta)))
    if isinstance(fam, PoissonLogLink):
        k = float(observed)
        lam = np.exp(eta)
        return np.exp(k * eta - lam - gammaln(k + 1.0))
    sigma = fam.noise_std
    if sigma == 0.0:
        return (np.abs(eta - float(observed)) <= _STRICT_TOL).astype(np.float64)
    z = (float(observed) - eta) / sigma
    return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))


def _is_deterministic(eq: StructuralEquation | None) -> bool:
    if eq is None:
        return False
    fam = eq.family
    return isinstance(fam, DeterministicTable) or (
        isinstance(fam, LinearGaussian) and fam.noise_std == 0.0)


def _enumeration_sufficiency(model: CausalModel, predictor: FairPredictor,
                             evidence: dict, y: float, a_prime: dict,
                             tol: float) -> dict:
    latents = [n for n in _exogenous_names(model) if n not in evidence]
    priors = model.prior_map
    for name in latents:
        if not isinstance(priors[name], CategoricalPrior):
            raise ConstraintNotInvertible(f"{name} is not finitely enumerable")
    sizes = [len(priors[n].values) for n in latents]
    total = int(np.prod(sizes)) if sizes else 1
    if total > _MAX_ENUM:
        raise ConstraintNotInvertible(f"{total} joint states exceed the enumeration cap")

    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij") if sizes else []
    state_cols = {}
    weight = np.ones(total)
    for name, grid in zip(latents, grids):
        idx = grid.reshape(-1)
        state_cols[name] = np.array(priors[name].values, dtype=object)[idx]
        weight = weight * np.array(priors[name].probs, dtype=np.float64)[idx]

    def _pin(value) -> np.ndarray:
        return (np.full(total, value, dtype=object) if isinstance(value, str)
                else np.full(total, float(value)))

    def resolve(m: CausalModel, pins: dict) -> dict[str, np.ndarray]:
        """Columns over the state grid; stochastic unobserved nodes become NaN."""
        eq_map = m.equation_map
        values = dict(state_cols)
        for name in require_valid(m):
            if name in values:
                continue
            if name in pins:
                values[name] = _pin(pins[name])
            elif _is_deterministic(eq_map.get(name)):
                values[name] = evaluate_equation(eq_map[name], values, None, total)
            else:
                values[name] = np.full(total, np.nan)
        return values

    def scores(values: dict[str, np.ndarray]) -> np.ndarray:
        inputs = {n: values[n] for n in predictor.manifest.input_order()}
        for name, col in inputs.items():
            if col.dtype.kind == "f" and np.isnan(col).any():
                raise ConstraintNotInvertible(
                    f"predictor input {name} is not determined by the joint state")
        return predictor.score(inputs)

    # factual pass: children consume pinned evidence; each evidence node with
    # an equation contributes an indicator or pmf factor against its parents
    factual = resolve(model, evidence)
    w = weight.copy()
    eq_map = model.equation_map
    for name, obs in evidence.items():
        eq = eq_map.get(name)
        if eq is None:
            continue  # observed exogenous root: constant factor, cancels
        if isinstance(eq.family, DeterministicTable) or (
                isinstance(eq.family, LinearGaussian) and eq.family.noise_std == 0.0):
            implied = evaluate_equation(eq, factual, None, total)
            if isinstance(obs, str):
                w = w * np.array([v == obs for v in implied.tolist()], dtype=np.float64)
            else:
                w = w * (np.abs(implied.astype(np.float64) - float(obs)) <= _STRICT_TOL)
        else:
            w = w * _pmf_factor(eq, factual, obs, total)
    if not np.any(w > 0.0):
        raise ZeroPosteriorMass("evidence has no support under the prior")

    score_f = scores(factual)
    keep = w * (np.abs(score_f - y) <= tol)
    mass = keep.sum()
    if mass <= 0.0:
        raise UnattainableValue(f"no posterior state yields prediction {y}")

    # counterfactual pass: only exogenous roots outside the intervention stay
    # pinned; everything downstream regenerates from the shared state
    cf_model = intervene(model, a_prime)
    cf_pins = {k: v for k, v in evidence.items()
               if k in priors and k not in a_prime}
    score_cf = scores(resolve(cf_model, cf_pins))
    prob = float((keep * (np.abs(score_cf - y) > tol)).sum() / mass)
    return {"probability": prob, "method": "enumeration", "states": total,
            "conditioned_mass": float(mass / w.sum())}


def _pinned_sufficiency(model: CausalModel, predictor: FairPredictor,
                        evidence: dict, y: float, a_prime: dict,
                        config: McmcConfig, tol: float) -> dict:
    """No latent inputs: check the factual score, regenerate under do(a')."""
    factual_inputs = {}
    for name in predictor.manifest.input_order():
        if name not in evidence:
            raise ConstraintNotInvertible(f"record does not pin input {name}")
        v = evidence[name]
        factual_inputs[name] = (np.array([v], dtype=object) if isinstance(v, str)
                                else np.array([float(v)]))
    s_f = float(predictor.score(factual_inputs)[0])
    if abs(s_f - y) > tol:
        raise UnattainableValue(
            f"factual prediction {s_f} does not equal {y} within {tol}")
    m = config.draws
    draws = exogenous_draws(model, evidence, m, config)
    cf_model = intervene(model, a_prime)
    given = {k: v for k, v in draws.items() if k not in a_prime}
    values = forward_eval(cf_model, given, m,
                          rng.child_seed(config.seed, _TAG_SUFF), salt=_TAG_SUFF)
    score_cf = predictor.score(
        {n: values[n] for n in predictor.manifest.input_order()})
    return {"probability": float(np.mean(np.abs(score_cf - y) > tol)),
            "method": "abduction", "draws": m}


def prob_sufficiency(model: CausalModel, predictor: FairPredictor, record: dict,
                     y: float, a_prime: dict, config: McmcConfig = McmcConfig(),
                     tol: float = _MATCH_TOL) -> dict:
    """P(counterfactual prediction differs from y | evidence and prediction = y).

    Requires the factual prediction to equal y within tol. Finite discrete
    backgrounds are enumerated exactly (up to 10^6 joint states). Otherwise
    the condition "prediction = y" is appended to the evidence: trivially for
    predictors whose inputs the record pins, and as a zero-noise score
    equation over the inputs for predictors with latent inputs. The
    counterfactual prediction is then regenerated under do(a_prime). A
    strictly invariant predictor gives probability 0; raises UnattainableValue
    when no exogenous state attains prediction y for this record.
    """
    require_valid(model)
    usable = set(model.protected) | set(model.names(Role.OBSERVED))
    evidence = {k: v for k, v in record.items() if k in usable}
    if not evidence:
        raise EmptyInputs("record carries no usable evidence")

    latents = [n for n in _exogenous_names(model) if n not in evidence]
    priors = model.prior_map
    if latents and all(isinstance(priors[n], CategoricalPrior) for n in latents):
        sizes = np.prod([len(priors[n].values) for n in latents])
        if sizes <= _MAX_ENUM:
            return _enumeration_sufficiency(model, predictor, evidence, y,
                                            a_prime, tol)

    if not predictor.manifest.background_inputs:
        return _pinned_sufficiency(model, predictor, evidence, y, a_prime,
                                   config, tol)

    score_eq = _score_equation(predictor)
    if predictor.head == "logistic":
        if not 0.0 < y < 1.0:
            raise ConstraintNotInvertible("logistic output must be inside (0, 1)")
        rhs = float(logit(y))
    else:
        rhs = float(y)

    aug = CausalModel(model.variables + (Variable("_score_", Role.OBSERVED),),
                      model.equations + (score_eq,), model.priors)
    require_valid(aug)
    m = config.draws
    try:
        draws = exogenous_draws(aug, {**evidence, "_score_": rhs}, m, config)
    except (SingularConditioning, ZeroPosteriorMass) as exc:
        raise UnattainableValue(
            f"prediction {y} is not attainable for this record") from exc

    cf_model = intervene(aug, a_prime)
    given = {k: v for k, v in draws.items() if k not in a_prime}
    values = forward_eval(cf_model, given, m,
                          rng.child_seed(config.seed, _TAG_SUFF), salt=_TAG_SUFF)
    score_cf = values["_score_"].astype(np.float64)
    pred_cf = expit(score_cf) if predictor.head == "logistic" else score_cf
    prob = float(np.mean(np.abs(pred_cf - y) > tol))
    return {"probability": prob, "method": "abduction", "draws": m}
