"""Training predictors whose inputs cannot transmit protected-attribute effects.

A predictor built only from non-descendants of the protected set is invariant
under protected-value interventions, draw by draw. The manifest records which
inputs a predictor is allowed to see; training over latent background inputs
integrates over their per-record posterior by augmenting each record with m
posterior draws and fitting on the stacked rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .counterfactual import McmcConfig, _row_products, _stacked, posterior_draw_matrix
from .dataset import Dataset
from .errors import DimensionMismatch, EmptyInputs, InvalidPath, UnknownVariable
from .estimators import _residual_fits, design_matrix, logistic_fit, ols_fit
from .scm import CausalModel, Role, non_descendants


@dataclass(frozen=True)
class InputManifest:
    """Declares a predictor's allowed inputs against a causal model.

    background_inputs  latent variables, read through per-record posteriors
    observable_inputs  data columns fed in directly (never the protected set)
    include_protected  whether the protected columns themselves are inputs
    whitelisted        observables exempt from the non-descendant requirement
    """

    background_inputs: frozenset[str]
    observable_inputs: frozenset[str]
    include_protected: bool
    protected: tuple[str, ...]
    whitelisted: frozenset[str] = frozenset()

    def validate(self, model: CausalModel) -> None:
        known = set(model.variable_map)
        for name in self.background_inputs | self.observable_inputs | set(self.protected):
            if name not in known:
                raise UnknownVariable(name)
        bad = self.background_inputs - set(model.background)
        if bad:
            raise DimensionMismatch(f"not background variables: {sorted(bad)}")
        overlap = self.observable_inputs & set(self.protected)
        if overlap:
            raise DimensionMismatch(
                f"protected columns {sorted(overlap)} listed as observables; "
                "use include_protected instead")
        if not self.include_protected:
            safe = non_descendants(model, set(self.protected))
            leaking = self.observable_inputs - safe - self.whitelisted
            if leaking:
                raise InvalidPath(
                    f"observable inputs {sorted(leaking)} descend from the protected set "
                    "and are not whitelisted")

    def input_order(self) -> tuple[str, ...]:
        cols = sorted(self.background_inputs) + sorted(self.observable_inputs)
        if self.include_protected:
            cols += sorted(self.protected)
        return tuple(cols)

    def to_json(self) -> dict:
        return {"background_inputs": sorted(self.background_inputs),
                "observable_inputs": sorted(self.observable_inputs),
                "include_protected": self.include_protected,
                "protected": list(self.protected),
                "whitelisted": sorted(self.whitelisted)}

    @staticmethod
    def from_json(blob: dict) -> "InputManifest":
        return InputManifest(frozenset(blob["background_inputs"]),
                             frozenset(blob["observable_inputs"]),
                             bool(blob["include_protected"]),
                             tuple(blob["protected"]),
                             frozenset(blob.get("whitelisted", ())))


def level1_inputs(model: CausalModel) -> InputManifest:
    """Manifest using only the observable non-descendants of the protected set."""
    protected = model.protected
    safe = non_descendants(model, set(protected))
    observable = {v.name for v in model.variables
                  if v.role in (Role.OBSERVED,) and v.name in safe}
    return InputManifest(frozenset(), frozenset(observable), False, protected)


@dataclass
class FairPredictor:
    """Linear or logistic head over manifest inputs.

    For manifests with background inputs, prediction for a record averages the
    head over m posterior draws of those backgrounds given the record's
    observable evidence.
    """

    manifest: InputManifest
    head: str                       # "linear" | "logistic"
    labels: tuple[str, ...]
    weights: np.ndarray
    encoders: dict[str, tuple[str, ...]]
    training: dict
    diagnostics: dict = field(default_factory=dict)

    def design_from(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        order = self.manifest.input_order()
        data = Dataset(tuple(order), {c: np.asarray(columns[c]) for c in order}, {})
        design, _ = design_matrix(data, order, encoders=self.encoders)
        if design.labels != self.labels:
            raise DimensionMismatch(
                f"design labels {design.labels} do not match fit labels {self.labels}")
        return design.matrix

    def score(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Head output per row of fully specified inputs, alike in any batch."""
        eta = _row_products(self.design_from(columns), self.weights[None, :])[:, 0]
        return expit(eta) if self.head == "logistic" else eta

    def to_json(self) -> dict:
        return {"manifest": self.manifest.to_json(),
                "head": self.head,
                "labels": list(self.labels),
                "weights": [float(w) for w in self.weights],
                "encoders": {k: list(v) for k, v in sorted(self.encoders.items())},
                "training": self.training,
                "diagnostics": self.diagnostics}

    @staticmethod
    def from_json(blob: dict) -> "FairPredictor":
        return FairPredictor(InputManifest.from_json(blob["manifest"]),
                             blob["head"],
                             tuple(blob["labels"]),
                             np.array(blob["weights"], dtype=np.float64),
                             {k: tuple(v) for k, v in blob["encoders"].items()},
                             blob["training"],
                             blob.get("diagnostics", {}))


def save_predictor(predictor: FairPredictor, path) -> None:
    with open(path, "w") as fh:
        json.dump(predictor.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_predictor(path) -> FairPredictor:
    with open(path) as fh:
        return FairPredictor.from_json(json.load(fh))


def _evidence_for(model: CausalModel, data: Dataset) -> dict[str, np.ndarray]:
    """All observed/protected columns of the model present in the data."""
    names = set(model.protected) | set(model.names(Role.OBSERVED))
    return {name: data.column(name) for name in data.columns if name in names}


def _manifest_rows(model: CausalModel, manifest: InputManifest, data: Dataset,
                   outcome: str | None, config: McmcConfig):
    """(manifest input columns, m): one row per record and posterior draw of the
    background inputs given the record's evidence, or m = 1 without them."""
    backgrounds = tuple(sorted(manifest.background_inputs))
    observed = {n: data.column(n) for n in manifest.input_order() if n not in backgrounds}
    if not backgrounds:
        return observed, 1
    evidence = {k: v for k, v in _evidence_for(model, data).items() if k != outcome}
    draws = posterior_draw_matrix(model, evidence, config, names=backgrounds)
    return _stacked(draws, backgrounds, observed), draws.shape[1]


def _fit_predictor(manifest: InputManifest, head: str, inputs: Dataset, y: np.ndarray,
                   n_records: int, training: dict) -> FairPredictor:
    """Fit a head on the manifest's input columns of `inputs` and wrap it;
    `training` holds the caller's own fields, the loss follows from the head."""
    design, encoders = design_matrix(inputs, manifest.input_order())
    if head == "logistic":
        fit = logistic_fit(design, y)
    elif head == "linear":
        fit = ols_fit(design, y)
    else:
        raise DimensionMismatch(f"unknown head {head!r}")
    return FairPredictor(
        manifest=manifest, head=head, labels=fit.labels, weights=fit.weights,
        encoders=encoders,
        training={"loss": "log" if head == "logistic" else "squared", **training},
        diagnostics={"residual_std": fit.residual_std, "warning": fit.warning,
                     "n_records": n_records})


def fair_learning(data: Dataset, model: CausalModel, manifest: InputManifest,
                  head: str = "linear", config: McmcConfig = McmcConfig(),
                  outcome: str | None = None) -> FairPredictor:
    """Fit a head on manifest inputs, integrating latent inputs over their posterior.

    Each record is expanded into m = chains * kept rows, one per posterior draw
    of the background inputs given that record's observable evidence; the head
    is then fit on the stacked design (squared loss for "linear", log loss for
    "logistic"). With no background inputs this reduces to a plain fit.
    Deterministic given (data, config.seed).
    """
    manifest.validate(model)
    if not manifest.background_inputs and not manifest.observable_inputs \
            and not manifest.include_protected:
        raise EmptyInputs("manifest selects no inputs")
    outcome = outcome or model.outcome[0]
    y = data.numeric(outcome)
    if data.n == 0:
        raise EmptyInputs("empty training data")

    columns, m = _manifest_rows(model, manifest, data, outcome, config)
    inputs = Dataset(manifest.input_order(), columns, dict(data.domains))
    return _fit_predictor(manifest, head, inputs, np.repeat(y, m), data.n,
                          {"outcome": outcome, "draws_per_record": m, "seed": config.seed,
                           "chains": config.chains, "burn_in": config.burn_in,
                           "kept": config.kept, "thin": config.thin})


def fair_predict(predictor: FairPredictor, model: CausalModel, data: Dataset,
                 config: McmcConfig | None = None) -> np.ndarray:
    """Per-record predictions; latent inputs are posterior-averaged per record.

    `model` is read only when the manifest has background inputs.
    """
    cfg = config or McmcConfig(seed=predictor.training.get("seed", 0))
    columns, m = _manifest_rows(model, predictor.manifest, data,
                                predictor.training.get("outcome"), cfg)
    scores = predictor.score(columns)
    if not predictor.manifest.background_inputs:
        return scores
    return scores.reshape(data.n, m).mean(axis=1)


def baseline_fit(data: Dataset, kind: str, outcome: str, head: str = "linear",
                 protected: tuple[str, ...] = ()) -> FairPredictor:
    """Fit a conventional baseline directly on data columns.

    kind "full" uses every column (protected included); kind "unaware" drops
    the protected columns but keeps their descendants, which is the point of
    auditing it. The returned manifest whitelists the observables so it can be
    validated against any model without claiming counterfactual safety.
    """
    if kind not in ("full", "unaware"):
        raise DimensionMismatch(f"unknown baseline kind {kind!r}")
    observables = [c for c in data.columns if c != outcome and c not in protected]
    if not observables and not (kind == "full" and protected):
        raise EmptyInputs("no input columns left")
    manifest = InputManifest(
        background_inputs=frozenset(),
        observable_inputs=frozenset(observables),
        include_protected=(kind == "full"),
        protected=tuple(protected),
        whitelisted=frozenset(observables))
    return _fit_predictor(manifest, head, data, data.numeric(outcome), data.n,
                          {"outcome": outcome, "kind": kind, "draws_per_record": 1, "seed": 0})


def additive_fair_fit(data: Dataset, model: CausalModel, outcome: str) -> FairPredictor:
    """Fit on residuals of protected-descendant observables (additive correction).

    Each observable column that descends from the protected set is replaced by
    the residual from regressing it on the protected columns; a linear head is
    then fit on residualized observables plus untouched non-descendants. The
    residualization is folded back into affine weights over the raw columns
    plus the protected columns, so the returned predictor evaluates directly
    on raw records. Numeric columns only; valid for squared loss.
    """
    protected = model.protected
    observables = [c for c in data.columns
                   if c != outcome and c not in protected and c in model.variable_map]
    if not observables:
        raise EmptyInputs("no observable columns")
    safe = non_descendants(model, set(protected))
    touched = [c for c in observables if c not in safe]
    first = _residual_fits(data, touched, list(protected)) if touched else {}
    with_eps = data.with_columns({f"eps_{c}": eps for c, (_, eps) in first.items()})

    cols = [c if c in safe else f"eps_{c}" for c in observables]
    fit_data = Dataset(tuple(cols), {c: with_eps.column(c) for c in cols},
                       dict(data.domains))
    design, _ = design_matrix(fit_data, cols)
    fit = ols_fit(design, data.numeric(outcome))

    # eps_X = X - (c0 + c.P): substitute to get affine weights on raw columns.
    # Label order must match input_order() so design_from lines up at predict time.
    folded_labels = ["intercept"] + sorted(observables) + sorted(protected)
    folded = {lab: 0.0 for lab in folded_labels}
    try:
        folded["intercept"] = fit.coefficient("intercept")
        for c in observables:
            w = fit.coefficient(c if c in safe else f"eps_{c}")
            folded[c] = w
            if c in first:
                sub = first[c][0]
                folded["intercept"] -= w * sub.coefficient("intercept")
                for p in protected:
                    folded[p] -= w * sub.coefficient(p)
    except ValueError as exc:  # one-hot label: a column was not numeric
        raise DimensionMismatch(
            "additive correction requires numeric observables and protected columns") from exc

    manifest = InputManifest(frozenset(), frozenset(observables), True,
                             tuple(protected), frozenset(observables))
    labels = tuple(folded_labels)
    weights = np.array([folded[lab] for lab in labels])
    return FairPredictor(
        manifest=manifest, head="linear", labels=labels, weights=weights,
        encoders={}, training={"outcome": outcome, "loss": "squared",
                               "kind": "fair_add", "draws_per_record": 1, "seed": 0},
        diagnostics={"residual_std": fit.residual_std, "warning": fit.warning,
                     "n_records": data.n, "residualized": touched})
