"""Fairness audits over fitted predictors.

The distributional audits compare, per record, the predictor's output under
the factual protected assignment against the output under a counterfactual
assignment, with the exogenous state abducted from that record's evidence.
The path-specific audit is the same comparison with the observables off the
declared paths held at their factual values; with nothing held it is the
plain audit. Both branches share prediction noise variable-by-variable (same
seed, same keying), so a predictor built from non-descendants of the
protected set comes out identical draw-by-draw, not just in distribution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, logit

from . import rng
from .counterfactual import (
    _REUSE,
    McmcConfig,
    _abduct_act_predict,
    _constant_column,
    _digest,
    _enumerate_posterior,
    _model_digest,
    _record_ids,
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
    SingularConditioning,
    UnattainableValue,
    ZeroPosteriorMass,
)
from .learning import FairPredictor, _evidence_for, fair_predict
from .scm import (
    CategoricalPrior,
    CausalModel,
    LinearGaussian,
    Role,
    StructuralEquation,
    Variable,
    _ancestors_only,
    _exogenous_names,
    _noiseless,
    forward_eval,
    intervene,
    require_valid,
)

_STRICT_TOL = 1e-9
_MATCH_TOL = 1e-6
_MAX_ENUM = 1_000_000
# sorted KS samples closer than this times their pooled spread count as tied
_TIE_SPREAD = 0.08
# scores per block of _ks_records' rows: the block's sort and count arrays stay
# near a megabyte each at any record and draw count
_KS_BLOCK_VALUES = 1 << 15
# rows per block of a _branch_scores pass: max(1, this // draws) records, so
# the block's forward pass and design matrix stay a few megabytes each
_BRANCH_BLOCK_ROWS = 1 << 15


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
    """The max_records ascending indices with the smallest keyed uniforms (ties
    to the lower index), so a smaller audit's records are among a larger one's."""
    if len(indices) <= max_records:
        return indices
    u = rng.uniforms(seed, rng.TAG_SUBSAMPLE, indices.astype(np.uint64))
    near = np.flatnonzero(u <= np.partition(u, max_records - 1)[max_records - 1])
    return indices[np.sort(near[np.argsort(u[near], kind="stable")[:max_records]])]


def _branch_scores(predictor: FairPredictor, model: CausalModel, sub: Dataset,
                   branches, latent: tuple[str, ...], exo_draws: np.ndarray,
                   seed: int, salt: int, held=(), ids=None) -> list[np.ndarray]:
    """(records, draws) predictor outputs under do(b) for each intervention b in
    branches; every branch reads the same draws and shares noise by key: draw
    d of the record with id i (default arange(records)) is row key i * draws + d.

    The observed exogenous columns of sub and its `held` columns are given per
    record. Each branch first intervenes on the held names with any value of
    their domain, so their causes are cut, and evaluates only the ancestors
    of the predictor's inputs in the intervened model (_ancestors_only); the
    given columns replace those values. A pass runs max(1, _BRANCH_BLOCK_ROWS
    // draws) records at a time, so it equals the one-block pass bit for bit
    with memory bounded by the block. Inside a _reuse_passes scope, a branch
    that computes any column keeps the columns it computes, full length and
    read-only, under a digest of all the pass reads: the model, the
    intervention and the pruned node set, the latent names and draws, the
    given columns by name, the ids, seed and salt. A later pass with
    that key, such as another recipe's audit of the same spec, only scores.
    """
    n_rec, m = exo_draws.shape[0], exo_draws.shape[1]
    ids, draw_ids = _record_ids(ids, n_rec), np.arange(m, dtype=np.uint64)
    observed = {n: sub.column(n) for n in (*_exogenous_names(model), *held) if n in sub.data}
    cut = {n: (model.variable(n).domain or (0.0,))[0] for n in held}
    input_order = predictor.manifest.input_order()
    per_block = max(1, _BRANCH_BLOCK_ROWS // m)
    store = _REUSE.get()
    call_key = None if store is None else _digest(
        _model_digest(model), repr(latent), exo_draws, ids, seed, salt,
        *[part for name, col in observed.items() for part in (name, col)])

    def scores(intervention: dict) -> np.ndarray:
        pruned, needed = _ancestors_only(intervene(model, {**cut, **intervention}),
                                         input_order)
        fixed = (needed - set(intervention)) & (set(latent) | set(observed))
        computed = needed - fixed
        key = kept = None
        if call_key is not None and computed:
            key = _digest(b"branch", call_key, repr(sorted(intervention.items())),
                          repr(sorted(needed)))
            kept = store.get(key)
        out = np.empty((n_rec, m))
        filled: dict[str, np.ndarray] = {}
        for lo in range(0, n_rec, per_block):
            hi = min(lo + per_block, n_rec)
            rows = slice(lo * m, hi * m)
            values = _stacked(exo_draws[lo:hi], latent,
                              {n: col[lo:hi] for n, col in observed.items()}, fixed)
            if kept is not None:
                values.update((n, col[rows]) for n, col in kept.items())
            else:
                values = forward_eval(pruned, values, (hi - lo) * m, seed, salt=salt,
                                      rows=(ids[lo:hi, None] * np.uint64(m) + draw_ids).ravel())
                if key is not None:
                    for n in computed:
                        if n not in filled:
                            filled[n] = np.empty(n_rec * m, dtype=values[n].dtype)
                        filled[n][rows] = values[n]
            out[lo:hi] = predictor.score({n: values[n] for n in input_order}).reshape(hi - lo, m)
        if filled:
            for col in filled.values():
                col.flags.writeable = False
            store[key] = filled
        return out

    return [scores(b) for b in branches]


def _check_pair(a: dict, a_prime: dict, **counts) -> None:
    """Raise DimensionMismatch unless a and a_prime assign the same variables
    and every count is an integer (not a bool) of at least 1."""
    if set(a) != set(a_prime):
        raise DimensionMismatch("a and a_prime must assign the same variables")
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise DimensionMismatch(f"{name} must be an integer of at least 1, got {value!r}")


def _paired_scores(model: CausalModel, predictor: FairPredictor, data: Dataset,
                   a: dict, a_prime: dict, config: McmcConfig, draws: int,
                   max_records: int, held=()):
    """Every paired audit's pass: check its arguments, subsample the a-group,
    abduct its latent exogenous state and score both branches with shared
    noise, the held observables given per record: (record indices, factual
    scores, counterfactual scores, the params every paired report holds), the
    scores (records, draws) and keyed by row in data."""
    require_valid(model)
    _check_pair(a, a_prime, draws=draws, max_records=max_records)
    indices = np.flatnonzero(_group_mask(data, a))
    if len(indices) == 0:
        raise EmptyGroup(f"no records with {a}")
    indices = _subsample(indices, max_records, config.seed)
    sub = data.take(indices)
    evidence = _evidence_for(model, sub)
    latent = tuple(n for n in _exogenous_names(model) if n not in evidence)
    cfg = replace(config, kept=max(1, math.ceil(draws / config.chains)))
    exo = posterior_draw_matrix(model, evidence, cfg, latent, ids=indices)[:, :draws, :]
    scores_f, scores_cf = _branch_scores(predictor, model, sub, (a, a_prime), latent, exo,
                                         rng.child_seed(config.seed, rng.TAG_BRANCH),
                                         rng.TAG_BRANCH, held, indices)
    params = {"a": a, "a_prime": a_prime, "draws": draws, "seed": config.seed,
              "max_records": max_records, "n_audited": len(indices)}
    return indices, scores_f, scores_cf, params


def _paired_report(criterion: str, params: dict, scores_f: np.ndarray,
                   scores_cf: np.ndarray, per_record: list[dict], aggregate: float,
                   threshold: float) -> FairnessReport:
    """A paired audit's report, passed when its aggregate is at most the
    threshold; the densities are each branch's per-record mean prediction."""
    return FairnessReport(criterion, params, per_record, aggregate, threshold,
                          bool(aggregate <= threshold),
                          {"factual": [float(s.mean()) for s in scores_f],
                           "counterfactual": [float(s.mean()) for s in scores_cf]})


def _ks_records(indices: np.ndarray, scores_f: np.ndarray, scores_cf: np.ndarray):
    """({"record", "ks"} per record, worst KS, tie tolerance) of paired (records,
    draws) scores; the tolerance is _TIE_SPREAD times their pooled spread.

    A record's KS is taken at that finite resolution: when its two sorted
    samples differ by at most the tolerance everywhere it is 0, else
    ks_2sample of the two. Zero-noise models give degenerate per-record
    posteriors, so a fitted predictor that is fair in population terms still
    shows an O(estimation error) atom shift; plain KS would read any such
    shift as 1.0. The tolerance sets the smallest shift the audit can resolve.
    """
    tie_tol = _TIE_SPREAD * float(np.std(np.concatenate([scores_f.ravel(),
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


def _ks_audit(criterion: str, model: CausalModel, predictor: FairPredictor,
              data: Dataset, a: dict, a_prime: dict, config: McmcConfig, draws: int,
              threshold: float, max_records: int, held=()) -> FairnessReport:
    """The per-record KS audit that cf_fairness_test and path_cf_test view,
    with the `held` observables given per record in both branches."""
    indices, scores_f, scores_cf, params = _paired_scores(
        model, predictor, data, a, a_prime, config, draws, max_records, held)
    per_record, aggregate, params["tie_tol"] = _ks_records(indices, scores_f, scores_cf)
    for r, f, cf in zip(per_record, scores_f, scores_cf):
        r.update(mean_factual=float(f.mean()), mean_counterfactual=float(cf.mean()),
                 mean_shift=float(f.mean() - cf.mean()))
    return _paired_report(criterion, params, scores_f, scores_cf, per_record,
                          aggregate, threshold)


def cf_fairness_test(model: CausalModel, predictor: FairPredictor, data: Dataset,
                     a: dict, a_prime: dict, config: McmcConfig = McmcConfig(),
                     draws: int = 1000, threshold: float = 0.05,
                     max_records: int = 200) -> FairnessReport:
    """Per-record KS distance between factual and counterfactual predictions.

    Records with the factual assignment `a` are audited (subsampled to
    max_records, seeded); the aggregate is the worst per-record KS statistic
    and the audit passes when it stays at or below the threshold. Sorted
    prediction samples closer than 0.08 times the pooled prediction spread
    count as identical, so fitted-weight noise on degenerate posteriors does
    not register as unfairness.
    """
    return _ks_audit("counterfactual_ks", model, predictor, data, a, a_prime, config,
                     draws, threshold, max_records)


def strict_cf_check(model: CausalModel, predictor: FairPredictor, data: Dataset,
                    a: dict, a_prime: dict, config: McmcConfig = McmcConfig(),
                    draws: int = 200, tol: float = _STRICT_TOL,
                    max_records: int = 200) -> FairnessReport:
    """Draw-by-draw invariance: every paired draw must differ by at most tol.

    Passes only for predictors that are functions of non-descendants of the
    intervened set; distribution-level equality is not enough here.
    """
    indices, scores_f, scores_cf, params = _paired_scores(
        model, predictor, data, a, a_prime, config, draws, max_records)
    diff = np.abs(scores_f - scores_cf)
    violating = diff > tol
    per_record = [{"record": int(ridx), "max_abs_diff": float(diff[i].max()),
                   "violations": int(violating[i].sum())}
                  for i, ridx in enumerate(indices)]
    aggregate = float(violating.mean())  # fraction of violating draws
    params.update(tol=tol, max_abs_diff=float(diff.max()))
    return _paired_report("strict_invariance", params, scores_f, scores_cf, per_record,
                          aggregate, 0.0)


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
                 max_records: int = 200) -> FairnessReport:
    """Path-specific audit: only the listed causal paths transmit the flip.

    This is cf_fairness_test with the observables off every listed path held
    at each record's factual values in both branches, so differences can
    only travel through the declared paths; its params add the `paths` and
    the `held` names. With nothing held its report is cf_fairness_test's bit
    for bit apart from those and the criterion. Each path must be a chain of
    edges starting at an audited protected variable.
    """
    on_path = _validate_paths(model, paths, a)
    held = [n for n in model.names(Role.OBSERVED) if n not in on_path and n in data.data]
    report = _ks_audit("path_counterfactual_ks", model, predictor, data, a, a_prime,
                       config, draws, threshold, max_records, held)
    report.params.update(paths=[list(p) for p in paths], held=held)
    return report


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


def ace(model: CausalModel, predictor: FairPredictor, x_evidence: dict,
        a: dict, a_prime: dict, n_draws: int = 20000,
        config: McmcConfig = McmcConfig()) -> dict:
    """Average causal effect of the protected flip on the prediction given X = x.

    E[score | do(a), x] - E[score | do(a'), x]. Each side abducts the
    exogenous state from x in the intervened model, pins x and runs forward
    only the ancestors of the predictor inputs: one abduct, act and predict
    pass, as in counterfactual_sample. The abduction takes the exact
    conditioning route where every path relevant to x is linear-Gaussian and
    MH otherwise, where the n_draws passes cycle over config.chains *
    config.kept posterior draws. method is "exact" when both sides took the
    exact route, else "mcmc". a and a_prime must assign the same variables,
    and n_draws must be at least 1.
    """
    require_valid(model)
    _check_pair(a, a_prime, n_draws=n_draws)
    input_order = predictor.manifest.input_order()
    means, exact = [], True
    for assignment in (a, a_prime):
        iv_model = intervene(model, assignment)
        exact &= exact_available(iv_model, x_evidence)
        values = _abduct_act_predict(iv_model, x_evidence, x_evidence, n_draws, config,
                                     rng.TAG_ACE, reads=input_order)
        means.append(float(predictor.score({n: values[n] for n in input_order}).mean()))
    mean_a, mean_ap = means
    return {"ace": mean_a - mean_ap, "mean_a": mean_a, "mean_a_prime": mean_ap,
            "method": "exact" if exact else "mcmc"}


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


def _enumeration_sufficiency(model: CausalModel, predictor: FairPredictor,
                             evidence: dict, y: float, a_prime: dict, tol: float) -> dict | None:
    """Exact sufficiency over the joint states of the latents, or None unless
    they are categorical, at most _MAX_ENUM states and fix what both passes read.

    The states and their posterior weights come from _enumerate_posterior,
    which weighs each with the sampler's density. Each pass is forward_eval of
    _ancestors_only over the states: the factual one pins the evidence and
    reads it and the predictor inputs; the one under do(a_prime) pins the
    exogenous evidence outside it and reads the inputs. Every other node they
    evaluate must be _noiseless.
    """
    priors = model.prior_map
    latents = tuple(n for n in _exogenous_names(model) if n not in evidence)
    if not latents or not all(isinstance(priors[n], CategoricalPrior) for n in latents):
        return None
    total = math.prod(len(priors[n].values) for n in latents)
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
    state_cols, w = _enumerate_posterior(model, evidence, latents)

    def scores(pruned: CausalModel, pins: dict) -> np.ndarray:
        given = {**state_cols, **{k: _constant_column(v, total) for k, v in pins.items()}}
        values = forward_eval(pruned, given, total, seed=0)  # noiseless: no draws
        return predictor.score({n: values[n] for n in input_order})

    keep = w * (np.abs(scores(*passes[0]) - y) <= tol)
    mass = keep.sum()
    if mass <= 0.0:
        raise UnattainableValue(f"no posterior state yields prediction {y}")

    prob = float((keep * (np.abs(scores(*passes[1]) - y) > tol)).sum() / mass)
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
    joint state fixes what both passes read, each state weighed by the MH
    sampler's posterior density. Otherwise the condition
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
