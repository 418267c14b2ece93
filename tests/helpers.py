"""Shared model builders and numeric utilities for the test suite."""

import hashlib

import numpy as np

from cfair import (
    CategoricalPrior,
    CausalModel,
    FairPredictor,
    InputManifest,
    LinearGaussian,
    NormalPrior,
    Role,
    ScenarioParams,
    StructuralEquation,
    Variable,
    generate,
)


def chain_model(noise: float = 0.0) -> CausalModel:
    """A -> X -> Y with U -> X; A is a root with a two-point prior."""
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(0, 1)),
                   Variable("X", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME),
                   Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("X", ("A", "U"),
                                      LinearGaussian(0.0, (1.0, 1.0), noise)),
                   StructuralEquation("Y", ("X",),
                                      LinearGaussian(0.0, (1.0,), noise))),
        priors={"A": CategoricalPrior((0, 1), (0.5, 0.5)),
                "U": NormalPrior(0.0, 1.0)})


def split_outcome_model(noise: float = 0.0) -> CausalModel:
    """A -> X <- U -> Y: the outcome does not descend from the protected root."""
    return CausalModel(
        variables=(Variable("A", Role.PROTECTED, domain=(0, 1)),
                   Variable("X", Role.OBSERVED),
                   Variable("Y", Role.OUTCOME),
                   Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("X", ("A", "U"),
                                      LinearGaussian(0.0, (1.0, 1.0), noise)),
                   StructuralEquation("Y", ("U",),
                                      LinearGaussian(0.0, (1.0,), noise))),
        priors={"A": CategoricalPrior((0, 1), (0.5, 0.5)),
                "U": NormalPrior(0.0, 1.0)})


def single_latent_model(noise: float = 1.0) -> CausalModel:
    """X = U + e with U ~ N(0,1): posterior U | X=2 is N(1, 1/2) at e ~ N(0,1)."""
    return CausalModel(
        variables=(Variable("X", Role.OBSERVED),
                   Variable("U", Role.BACKGROUND)),
        equations=(StructuralEquation("X", ("U",),
                                      LinearGaussian(0.0, (1.0,), noise)),),
        priors={"U": NormalPrior(0.0, 1.0)})


def red_car(n: int = 1000, seed: int = 0, **params):
    return generate(ScenarioParams(kind="red_car", params=params, n=n, seed=seed))


def high_crime(n: int = 1000, seed: int = 0, **params):
    return generate(ScenarioParams(kind="high_crime", params=params, n=n, seed=seed))


def law_school(n: int = 1000, seed: int = 0, **params):
    return generate(ScenarioParams(kind="law_school", params=params, n=n, seed=seed))


def loan(n: int = 1000, seed: int = 0, **params):
    return generate(ScenarioParams(kind="loan", params=params, n=n, seed=seed))


def manifest_for(model: CausalModel, backgrounds=(), observables=(),
                 include_protected: bool = False, whitelist=()) -> InputManifest:
    return InputManifest(frozenset(backgrounds), frozenset(observables),
                         include_protected, tuple(model.protected),
                         frozenset(whitelist))


def linear_predictor(model: CausalModel, manifest: InputManifest,
                     weights: dict, intercept: float = 0.0) -> FairPredictor:
    """Hand-built linear head; weights maps input name -> coefficient."""
    order = manifest.input_order()
    w = np.array([intercept] + [float(weights.get(c, 0.0)) for c in order])
    outcome = model.outcome[0] if model.outcome else "Y"
    return FairPredictor(manifest=manifest, head="linear",
                         labels=("intercept",) + order, weights=w, encoders={},
                         training={"outcome": outcome, "seed": 0,
                                   "draws_per_record": 1},
                         diagnostics={})


def batch_se(draws: np.ndarray, batches: int = 10) -> float:
    """Batch-means standard error; robust to within-chain autocorrelation."""
    x = np.asarray(draws, dtype=np.float64).ravel()
    k = len(x) // batches
    if k == 0:
        return float(np.std(x, ddof=1) / np.sqrt(len(x)))
    means = x[:k * batches].reshape(batches, k).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(batches))


def model_signature(model: CausalModel):
    """Order-insensitive structural fingerprint, for equality assertions."""
    from cfair import model_to_json
    blob = model_to_json(model)
    blob["equations"] = sorted(blob["equations"], key=lambda e: e["child"])
    blob["variables"] = sorted(blob["variables"], key=lambda v: v["name"])
    return blob


def observed_only(model: CausalModel, data) -> "Dataset":
    """Drop background columns, mimicking what a real-world table would hold."""
    from cfair import Dataset
    keep = [c for c in data.columns if c not in model.background]
    return Dataset(tuple(keep), {c: data.column(c) for c in keep},
                   {k: v for k, v in data.domains.items() if k in keep})


def digest(arr) -> str:
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


def assert_keyed_by_id(draw, evidence: dict, picks) -> None:
    """Check that a record's draws depend on its id alone.

    draw(evidence columns, ids or None) gives (records, m, d) draws. A batch
    of the evidence rows `picks`, each row's first occurrence under its own
    id and every later one under a fresh id, must give every record under its
    own id the draws that record gets in the whole evidence (ids 0, 1, ...),
    bit for bit: alone, at another position and among other records.
    """
    whole = draw(evidence, None)
    for r in range(len(whole)):
        alone = draw({k: np.asarray(v)[[r]] for k, v in evidence.items()}, np.array([r]))
        assert digest(alone[0]) == digest(whole[r]), r
    ids = [r if r not in picks[:j] else 1000 + j for j, r in enumerate(picks)]
    batch = draw({k: np.asarray(v)[list(picks)] for k, v in evidence.items()}, np.array(ids))
    for j, (r, i) in enumerate(zip(picks, ids)):
        if r == i:
            assert digest(batch[j]) == digest(whole[r]), (picks, j)
