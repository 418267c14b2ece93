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
    _abduct_act_predict,
    _ancestors_only,
    _constant_column,
    _exogenous_names,
    _stacked,
    exact_available,
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
from .learning import FairPredictor, _evidence_for, fair_predict
from .scm import (
    BernoulliLogit,
    CategoricalPrior,
    CausalModel,
    LinearGaussian,
    PoissonLogLink,
    Role,
    StructuralEquation,
    Variable,
    _decode,
    _linear_predictor,
    _noiseless,
    evaluate_equation,
    forward_eval,
    intervene,
    require_valid,
)

_ACE_BAND = 0.05
_STRICT_TOL = 1e-9
_MATCH_TOL = 1e-6
_MAX_ENUM = 1_000_000
# scores per block of _ks_records' rows: the block's sort and count arrays stay
# near a megabyte each at any record and draw count
_KS_BLOCK_VALUES = 1 << 15


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


def _sorted_ks(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ks_2sample of each row pair of x and y, (rows, m) each and sorted along
    rows, bit for bit.

    One stable sort merges each row pair. At the end of each tie group the
    counts cx and cy of x and y values so far are what searchsorted(...,
    side="right") gives for that value, so cx/m - cy/m is ks_2sample's
    difference there. NaNs sort last and tie with each other, as there.
    """
    m = x.shape[1]
    if m == 0:
        raise EmptyInputs("KS statistic needs non-empty samples")
    merged = np.concatenate([x, y], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    values = np.take_along_axis(merged, order, axis=1)
    cx = np.cumsum(order < m, axis=1)
    cy = np.arange(1, 2 * m + 1) - cx
    ends = np.ones(values.shape, dtype=bool)
    ends[:, :-1] = (values[:, 1:] != values[:, :-1]) & ~(
        np.isnan(values[:, 1:]) & np.isnan(values[:, :-1]))
    return np.where(ends, np.abs(cx / m - cy / m), 0.0).max(axis=1)


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


def _matches(col: np.ndarray, value) -> np.ndarray:
    """Elementwise col == value: exact for a string, as float64 otherwise."""
    if isinstance(value, str):
        return np.array([v == value for v in col.tolist()])
    return col.astype(np.float64) == float(value)


def _group_mask(data: Dataset, assignment: dict) -> np.ndarray:
    mask = np.ones(data.n, dtype=bool)
    for name, value in assignment.items():
        mask &= _matches(data.column(name), value)
    return mask


def _subsample(indices: np.ndarray, max_records: int, seed: int) -> np.ndarray:
    if len(indices) <= max_records:
        return indices
    gen = rng.generator(seed, rng.TAG_SUBSAMPLE)
    pick = gen.choice(len(indices), size=max_records, replace=False)
    return indices[np.sort(pick)]


def _branch_scores(predictor: FairPredictor, model: CausalModel, sub: Dataset,
                   branches, latent: tuple[str, ...], exo_draws: np.ndarray,
                   seed: int, salt: int) -> list[np.ndarray]:
    """(records, draws) predictor outputs under do(b) for each intervention b in
    branches; every branch reads the same draws and shares noise by key.

    Each branch evaluates only the ancestors of the predictor's inputs in the
    intervened model (_ancestors_only).
    """
    n_rec, m = exo_draws.shape[0], exo_draws.shape[1]
    observed = {n: sub.column(n) for n in _exogenous_names(model) if n in sub.data}
    input_order = predictor.manifest.input_order()

    def scores(intervention: dict) -> np.ndarray:
        pruned, needed = _ancestors_only(intervene(model, intervention), input_order)
        # one branch's columns at a time: they are freed before the next pass
        given = _stacked(exo_draws, latent, observed, needed - set(intervention))
        values = forward_eval(pruned, given, n_rec * m, seed, salt=salt)
        inputs = {name: values[name] for name in input_order}
        return predictor.score(inputs).reshape(n_rec, m)

    return [scores(b) for b in branches]


def _abducted_group(model: CausalModel, data: Dataset, a: dict, config: McmcConfig,
                    draws: int, max_records: int):
    """Subsample the a-group and abduct its latent exogenous state: (record
    indices, their rows, latent names, (records, draws, latent) draws)."""
    indices = np.flatnonzero(_group_mask(data, a))
    if len(indices) == 0:
        raise EmptyGroup(f"no records with {a}")
    indices = _subsample(indices, max_records, config.seed)
    sub = data.take(indices)
    evidence = _evidence_for(model, sub)
    latent = tuple(n for n in _exogenous_names(model) if n not in evidence)
    cfg = replace(config, kept=max(1, math.ceil(draws / config.chains)))
    return indices, sub, latent, posterior_draw_matrix(model, evidence, cfg, latent)[:, :draws, :]


def _paired_scores(model: CausalModel, predictor: FairPredictor, data: Dataset,
                   a: dict, a_prime: dict, config: McmcConfig, draws: int,
                   max_records: int):
    """Subsample the a-group, abduct, and score both branches with shared noise."""
    require_valid(model)
    if set(a) != set(a_prime):
        raise DimensionMismatch("a and a_prime must assign the same variables")
    indices, sub, latent, exo = _abducted_group(model, data, a, config, draws, max_records)
    scores_f, scores_cf = _branch_scores(predictor, model, sub, (a, a_prime), latent, exo,
                                         rng.child_seed(config.seed, rng.TAG_BRANCH),
                                         rng.TAG_BRANCH)
    return indices, scores_f, scores_cf


def _ks_records(indices: np.ndarray, scores_f: np.ndarray, scores_cf: np.ndarray,
                tie_frac: float):
    """({"record", "ks"} per record, worst KS, tie tolerance) of paired (records,
    draws) scores; the tolerance is tie_frac times their pooled spread.

    A record's KS is taken at that finite resolution: when its two sorted
    samples differ by at most the tolerance everywhere it is 0, else
    ks_2sample of the two. Zero-noise models give degenerate per-record
    posteriors, so a fitted predictor that is fair in population terms still
    shows an O(estimation error) atom shift; plain KS would read any such
    shift as 1.0. The tolerance sets the smallest shift the audit can resolve.
    """
    tie_tol = tie_frac * float(np.std(np.concatenate([scores_f.ravel(),
                                                      scores_cf.ravel()])))
    ks = np.zeros(len(scores_f))
    rows = max(1, _KS_BLOCK_VALUES // max(1, scores_f.shape[1]))
    for lo in range(0, len(ks), rows):
        f = np.sort(np.asarray(scores_f[lo:lo + rows], dtype=np.float64), axis=1)
        cf = np.sort(np.asarray(scores_cf[lo:lo + rows], dtype=np.float64), axis=1)
        resolved = np.ones(len(f), dtype=bool)
        if tie_tol > 0.0:
            resolved = ~(np.abs(f - cf).max(axis=1) <= tie_tol)
        ks[lo:lo + rows][resolved] = _sorted_ks(f[resolved], cf[resolved])
    per_record = [{"record": int(ridx), "ks": v} for ridx, v in zip(indices, ks.tolist())]
    return per_record, float(np.max(ks)), tie_tol


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
    per_record, aggregate, tie_tol = _ks_records(indices, scores_f, scores_cf, tie_frac)
    for r, f, cf in zip(per_record, scores_f, scores_cf):
        r.update(mean_factual=float(f.mean()), mean_counterfactual=float(cf.mean()),
                 mean_shift=float(f.mean() - cf.mean()))
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
    indices, sub, latent, exo = _abducted_group(model, data, a, config, draws, max_records)
    held = [n for n in model.names(Role.OBSERVED) if n not in on_path and n in sub.data]

    rows = []
    for i, ridx in enumerate(indices):
        pinned = {name: _py(sub.column(name)[i]) for name in held}
        rows.append(_branch_scores(predictor, model, sub.take([i]),
                                   ({**a, **pinned}, {**a_prime, **pinned}), latent,
                                   exo[i:i + 1],
                                   rng.child_seed(config.seed, rng.TAG_PATH, int(ridx)),
                                   rng.TAG_PATH))
    all_f, all_cf = (np.concatenate(branch) for branch in zip(*rows))
    per_record, aggregate, tie_tol = _ks_records(indices, all_f, all_cf, tie_frac)
    for r, f, cf in zip(per_record, all_f, all_cf):
        r["mean_shift"] = float(f.mean() - cf.mean())
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
    if predictor.manifest.background_inputs and model is None:
        raise DimensionMismatch("background inputs need the model to predict")
    preds = fair_predict(predictor, model, data, config)
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
    input_order = predictor.manifest.input_order()
    if exact_available(iv_model, x_evidence):
        values = _abduct_act_predict(iv_model, x_evidence, x_evidence, n_draws, config,
                                     rng.TAG_ACE, reads=input_order)
        inputs = {n: values[n] for n in input_order}
        return float(predictor.score(inputs).mean()), "exact", n_draws
    pruned, _ = _ancestors_only(iv_model, tuple(input_order) + tuple(x_evidence))
    sim = forward_eval(pruned, {}, n_draws, rng.child_seed(config.seed, rng.TAG_ACE, 1))
    accept = np.ones(n_draws, dtype=bool)
    for name, value in x_evidence.items():
        if model.variable(name).domain is None:
            accept &= np.abs(sim[name].astype(np.float64) - float(value)) <= _ACE_BAND
        else:
            accept &= _matches(sim[name], value)
    if not accept.any():
        raise NoAcceptedSamples(
            f"no simulated rows matched {x_evidence} within band {_ACE_BAND}")
    inputs = {n: sim[n][accept] for n in input_order}
    return float(predictor.score(inputs).mean()), "rejection", int(accept.sum())


def ace(model: CausalModel, predictor: FairPredictor, x_evidence: dict,
        a: dict, a_prime: dict, n_draws: int = 20000,
        config: McmcConfig = McmcConfig()) -> dict:
    """Average causal effect of the protected flip on the prediction given X = x.

    E[score | do(a), x] - E[score | do(a'), x]. Linear-Gaussian models take the
    exact conditioning route, with x pinned; otherwise rejection sampling with
    a +-0.05 acceptance band per continuous evidence coordinate (exact match
    on finite domains). Either route runs forward only the ancestors of the
    predictor inputs (and, when rejecting, of the evidence).
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


def _enumeration_sufficiency(model: CausalModel, predictor: FairPredictor,
                             evidence: dict, y: float, a_prime: dict, tol: float) -> dict | None:
    """Exact sufficiency over the joint states of the latents, or None unless
    they are categorical, at most _MAX_ENUM states and fix what both passes read.

    Each pass is forward_eval of _ancestors_only over the state grid: the
    factual one pins the evidence and reads it and the predictor inputs; the
    one under do(a_prime) pins the exogenous evidence outside it and reads the
    inputs. Every other node they evaluate must be _noiseless.
    """
    priors = model.prior_map
    latents = [n for n in _exogenous_names(model) if n not in evidence]
    if not latents or not all(isinstance(priors[n], CategoricalPrior) for n in latents):
        return None
    sizes = [len(priors[n].values) for n in latents]
    total = math.prod(sizes)
    if total > _MAX_ENUM:
        return None
    input_order = predictor.manifest.input_order()
    cf_pins = {k: v for k, v in evidence.items() if k in priors and k not in a_prime}
    passes = []
    for m, pins, reads in ((model, evidence, input_order + tuple(evidence)),
                           (intervene(model, a_prime), cf_pins, input_order)):
        pruned, needed = _ancestors_only(m, reads)
        eqs = pruned.equation_map
        if not all(_noiseless(eqs.get(n)) for n in needed - set(latents) - set(pins)):
            return None
        passes.append((pruned, pins))

    grids = np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij")
    state_cols = {}
    weight = np.ones(total)
    for name, grid in zip(latents, grids):
        idx = grid.reshape(-1)
        state_cols[name] = _decode(priors[name].values, idx)
        weight = weight * np.array(priors[name].probs, dtype=np.float64)[idx]

    def forward(pruned: CausalModel, pins: dict) -> dict[str, np.ndarray]:
        given = {**state_cols, **{k: _constant_column(v, total) for k, v in pins.items()}}
        return forward_eval(pruned, given, total, seed=0)  # noiseless: no draws

    def scores(values: dict[str, np.ndarray]) -> np.ndarray:
        return predictor.score({n: values[n] for n in input_order})

    # each evidence node with an equation contributes an indicator or pmf factor
    factual = forward(*passes[0])
    w = weight.copy()
    eq_map = model.equation_map
    for name, obs in evidence.items():
        eq = eq_map.get(name)
        if eq is None:
            continue  # observed exogenous root: constant factor, cancels
        if _noiseless(eq):
            implied = evaluate_equation(eq, factual, None, total)
            if isinstance(obs, str):
                w = w * _matches(implied, obs)
            else:
                w = w * (np.abs(implied.astype(np.float64) - float(obs)) <= _STRICT_TOL)
        else:
            w = w * _pmf_factor(eq, factual, obs, total)
    if not np.any(w > 0.0):
        raise ZeroPosteriorMass("evidence has no support under the prior")

    keep = w * (np.abs(scores(factual) - y) <= tol)
    mass = keep.sum()
    if mass <= 0.0:
        raise UnattainableValue(f"no posterior state yields prediction {y}")

    score_cf = scores(forward(*passes[1]))
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
        factual_inputs[name] = _constant_column(evidence[name], 1)
    s_f = float(predictor.score(factual_inputs)[0])
    if abs(s_f - y) > tol:
        raise UnattainableValue(
            f"factual prediction {s_f} does not equal {y} within {tol}")
    input_order = predictor.manifest.input_order()
    values = _abduct_act_predict(model, evidence, a_prime, config.draws, config,
                                 rng.TAG_SUFF, reads=input_order)
    score_cf = predictor.score({n: values[n] for n in input_order})
    return {"probability": float(np.mean(np.abs(score_cf - y) > tol)),
            "method": "abduction", "draws": config.draws}


def prob_sufficiency(model: CausalModel, predictor: FairPredictor, record: dict,
                     y: float, a_prime: dict, config: McmcConfig = McmcConfig(),
                     tol: float = _MATCH_TOL) -> dict:
    """P(counterfactual prediction differs from y | evidence and prediction = y).

    Requires the factual prediction to equal y within tol. Finite discrete
    backgrounds are enumerated exactly (up to 10^6 joint states) where their
    joint state fixes what both passes read. Otherwise the condition
    "prediction = y" is appended to the evidence: trivially for predictors
    whose inputs the record pins, and as a zero-noise score equation over the
    inputs for predictors with latent inputs. The counterfactual prediction is
    then regenerated under do(a_prime). Every route runs forward only the
    ancestors of what it reads. A strictly invariant predictor gives
    probability 0; raises UnattainableValue when no exogenous state attains
    prediction y for this record.
    """
    require_valid(model)
    usable = set(model.protected) | set(model.names(Role.OBSERVED))
    evidence = {k: v for k, v in record.items() if k in usable}
    if not evidence:
        raise EmptyInputs("record carries no usable evidence")

    out = _enumeration_sufficiency(model, predictor, evidence, y, a_prime, tol)
    if out is not None:
        return out

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
    try:
        values = _abduct_act_predict(aug, {**evidence, "_score_": rhs}, a_prime,
                                     config.draws, config, rng.TAG_SUFF, reads=("_score_",))
    except (SingularConditioning, ZeroPosteriorMass) as exc:
        raise UnattainableValue(
            f"prediction {y} is not attainable for this record") from exc
    score_cf = values["_score_"].astype(np.float64)
    pred_cf = expit(score_cf) if predictor.head == "logistic" else score_cf
    prob = float(np.mean(np.abs(pred_cf - y) > tol))
    return {"probability": prob, "method": "abduction", "draws": config.draws}
