"""Structural causal models over a closed family of equation types.

A model is (variables, equations, priors): background variables carry priors,
every other variable carries exactly one structural equation, except that a
parentless root (a protected attribute, typically) may carry a prior instead,
mirroring the usual treatment of exogenous attributes. Equation families are
a closed enumeration so that validation, sampling, abduction and serialization
can each handle every case exactly:

* LinearGaussian      child = intercept + weights . parents + N(0, noise_std^2)
* PoissonLogLink      child ~ Poisson(exp(intercept + weights . parents))
* BernoulliLogit      child ~ Bernoulli(sigmoid(intercept + weights . parents))
* DeterministicTable  total lookup table over finite parent domains

Sampling is counter-keyed per (seed, variable, row); see rng.py.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Union

import numpy as np
from scipy.special import expit, ndtri, pdtr, pdtrik

from . import rng
from .dataset import Dataset
from .errors import (
    DimensionMismatch,
    InterveneOnBackground,
    ModelValidationError,
    NonFiniteDensity,
    UnattainableValue,
    UnknownVariable,
)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUMBER = (int, float, np.integer, np.floating)


class Role(str, Enum):
    PROTECTED = "protected"
    OBSERVED = "observed"
    OUTCOME = "outcome"
    BACKGROUND = "background"


@dataclass(frozen=True)
class Variable:
    name: str
    role: Role
    domain: tuple | None = None  # None means real-valued

    def __post_init__(self):
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))


@dataclass(frozen=True)
class LinearGaussian:
    intercept: float
    weights: tuple[float, ...]
    noise_std: float

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


@dataclass(frozen=True)
class PoissonLogLink:
    intercept: float
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


@dataclass(frozen=True)
class BernoulliLogit:
    intercept: float
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


@dataclass(frozen=True)
class DeterministicTable:
    """Total mapping from parent value tuples to a child value."""

    entries: tuple

    def __init__(self, entries):
        if isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        norm = tuple(sorted(((tuple(k), v) for k, v in items), key=lambda e: repr(e[0])))
        object.__setattr__(self, "entries", norm)

    @property
    def mapping(self) -> dict:
        return dict(self.entries)


Family = Union[LinearGaussian, PoissonLogLink, BernoulliLogit, DeterministicTable]


@dataclass(frozen=True)
class StructuralEquation:
    child: str
    parents: tuple[str, ...]
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class NormalPrior:
    mean: float = 0.0
    std: float = 1.0


@dataclass(frozen=True)
class CategoricalPrior:
    values: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))


Prior = Union[NormalPrior, CategoricalPrior]


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    issues: tuple[ValidationIssue, ...]
    topological_order: tuple[str, ...]

    def raise_if_invalid(self):
        if not self.ok:
            raise ModelValidationError(self.issues)


@dataclass(frozen=True)
class CausalModel:
    variables: tuple[Variable, ...]
    equations: tuple[StructuralEquation, ...]
    priors: tuple[tuple[str, Prior], ...]

    def __init__(self, variables, equations, priors):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "equations", tuple(equations))
        if isinstance(priors, dict):
            priors = priors.items()
        object.__setattr__(self, "priors", tuple(priors))

    # -- lookups ---------------------------------------------------------

    @property
    def variable_map(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @property
    def equation_map(self) -> dict[str, StructuralEquation]:
        return {e.child: e for e in self.equations}

    @property
    def prior_map(self) -> dict[str, Prior]:
        return dict(self.priors)

    def variable(self, name: str) -> Variable:
        try:
            return self.variable_map[name]
        except KeyError:
            raise UnknownVariable(f"no variable {name!r}") from None

    def names(self, role: Role | None = None) -> tuple[str, ...]:
        if role is None:
            return tuple(v.name for v in self.variables)
        return tuple(v.name for v in self.variables if v.role == role)

    @property
    def background(self) -> tuple[str, ...]:
        return self.names(Role.BACKGROUND)

    @property
    def protected(self) -> tuple[str, ...]:
        return self.names(Role.PROTECTED)

    @property
    def observed(self) -> tuple[str, ...]:
        return self.names(Role.OBSERVED)

    @property
    def outcome(self) -> tuple[str, ...]:
        return self.names(Role.OUTCOME)

    def children_map(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for eq in self.equations:
            for p in eq.parents:
                if p in out:
                    out[p].append(eq.child)
        return out

    def value_in_domain(self, name: str, value) -> bool:
        var = self.variable(name)
        if var.domain is None:
            return isinstance(value, _NUMBER) and math.isfinite(float(value))
        return any(value == d for d in var.domain)


# ---------------------------------------------------------------------------
# validation


def _check_family(model: CausalModel, eq: StructuralEquation, issues: list):
    fam = eq.family
    var_map = model.variable_map
    child_var = var_map.get(eq.child)
    if isinstance(fam, (LinearGaussian, PoissonLogLink, BernoulliLogit)):
        if len(fam.weights) != len(eq.parents):
            issues.append(ValidationIssue(
                "WeightArityMismatch",
                f"{eq.child}: {len(fam.weights)} weights for {len(eq.parents)} parents"))
        for p in eq.parents:
            pv = var_map.get(p)
            if pv is not None and pv.domain is not None:
                if not all(isinstance(v, _NUMBER) for v in pv.domain):
                    issues.append(ValidationIssue(
                        "NonNumericParent",
                        f"{eq.child}: parent {p} has non-numeric finite domain"))
        if isinstance(fam, LinearGaussian):
            if not (fam.noise_std >= 0.0):
                issues.append(ValidationIssue("BadParam", f"{eq.child}: noise_std must be >= 0"))
            if child_var is not None and child_var.domain is not None:
                issues.append(ValidationIssue(
                    "BadDomain", f"{eq.child}: LinearGaussian child must be real-valued"))
        if isinstance(fam, PoissonLogLink) and child_var is not None and child_var.domain is not None:
            issues.append(ValidationIssue(
                "BadDomain", f"{eq.child}: PoissonLogLink child must be real-valued (counts)"))
        if isinstance(fam, BernoulliLogit) and child_var is not None:
            if child_var.domain is not None and set(child_var.domain) != {0, 1}:
                issues.append(ValidationIssue(
                    "BadDomain", f"{eq.child}: BernoulliLogit child domain must be {{0, 1}}"))
    elif isinstance(fam, DeterministicTable):
        domains = []
        for p in eq.parents:
            pv = var_map.get(p)
            if pv is None:
                return  # dangling parent reported elsewhere
            if pv.domain is None:
                issues.append(ValidationIssue(
                    "TableDomain", f"{eq.child}: table parent {p} must have a finite domain"))
                return
            domains.append(pv.domain)
        mapping = fam.mapping
        expected = set(product(*domains)) if domains else {()}
        got = set(mapping.keys())
        if got != expected:
            missing = sorted(expected - got, key=repr)[:3]
            extra = sorted(got - expected, key=repr)[:3]
            issues.append(ValidationIssue(
                "TableNotTotal",
                f"{eq.child}: table keys do not cover the parent domains "
                f"(missing {missing}, unexpected {extra})"))
        if child_var is not None and child_var.domain is not None:
            bad = [v for v in mapping.values() if not any(v == d for d in child_var.domain)]
            if bad:
                issues.append(ValidationIssue(
                    "BadTableValue", f"{eq.child}: table values {bad[:3]} outside child domain"))


def _check_prior(model: CausalModel, name: str, prior: Prior, issues: list):
    var = model.variable_map.get(name)
    if var is None:
        issues.append(ValidationIssue("UnknownVariable", f"prior on undeclared variable {name}"))
        return
    if isinstance(prior, NormalPrior):
        if var.domain is not None:
            issues.append(ValidationIssue(
                "BadPrior", f"{name}: normal prior requires a real-valued domain"))
        if not (prior.std >= 0.0):
            issues.append(ValidationIssue("BadPrior", f"{name}: prior std must be >= 0"))
    elif isinstance(prior, CategoricalPrior):
        if len(prior.values) != len(prior.probs) or not prior.values:
            issues.append(ValidationIssue("BadPrior", f"{name}: values/probs length mismatch"))
            return
        if any(p < 0 for p in prior.probs) or abs(sum(prior.probs) - 1.0) > 1e-9:
            issues.append(ValidationIssue("BadPrior", f"{name}: probs must be >= 0 and sum to 1"))
        if var.domain is None:
            issues.append(ValidationIssue(
                "BadPrior", f"{name}: categorical prior requires a finite domain"))
        elif any(not any(v == d for d in var.domain) for v in prior.values):
            issues.append(ValidationIssue(
                "BadPrior", f"{name}: prior values outside the declared domain"))


def validate_model(model: CausalModel) -> ValidationResult:
    """Check every structural invariant; returns all violations found.

    A topological order (backgrounds first, then declaration order among
    ready variables) is returned iff the model is valid.
    """
    issues: list[ValidationIssue] = []
    seen = set()
    for v in model.variables:
        if not _NAME_RE.match(v.name):
            issues.append(ValidationIssue("InvalidName", f"illegal variable name {v.name!r}"))
        if v.name in seen:
            issues.append(ValidationIssue("DuplicateVariable", f"variable {v.name} declared twice"))
        seen.add(v.name)
        if v.domain is not None and len(set(map(repr, v.domain))) != len(v.domain):
            issues.append(ValidationIssue("BadDomain", f"{v.name}: duplicate domain values"))

    var_map = model.variable_map
    eq_children = set()
    for eq in model.equations:
        if eq.child not in var_map:
            issues.append(ValidationIssue(
                "UnknownVariable", f"equation for undeclared variable {eq.child}"))
            continue
        if eq.child in eq_children:
            issues.append(ValidationIssue(
                "DuplicateEquation", f"{eq.child} has more than one equation"))
        eq_children.add(eq.child)
        if var_map[eq.child].role == Role.BACKGROUND:
            issues.append(ValidationIssue(
                "BackgroundHasParents",
                f"background variable {eq.child} must not have an equation"))
        for p in eq.parents:
            if p not in var_map:
                issues.append(ValidationIssue(
                    "DanglingParent", f"{eq.child}: parent {p} is not declared"))
        if len(set(eq.parents)) != len(eq.parents):
            issues.append(ValidationIssue(
                "DanglingParent", f"{eq.child}: repeated parent in {eq.parents}"))
        _check_family(model, eq, issues)

    prior_names = set()
    for name, prior in model.priors:
        if name in prior_names:
            issues.append(ValidationIssue("BadPrior", f"{name} has more than one prior"))
        prior_names.add(name)
        _check_prior(model, name, prior, issues)

    for v in model.variables:
        has_eq = v.name in eq_children
        has_prior = v.name in prior_names
        if v.role == Role.BACKGROUND:
            if not has_prior:
                issues.append(ValidationIssue(
                    "MissingPrior", f"background variable {v.name} has no prior"))
        else:
            if has_eq and has_prior:
                issues.append(ValidationIssue(
                    "EquationAndPrior", f"{v.name} has both an equation and a prior"))
            elif not has_eq and not has_prior:
                issues.append(ValidationIssue(
                    "MissingEquation", f"{v.name} has neither an equation nor a root prior"))

    # cycle check over the equation graph (declared variables only)
    order: list[str] = []
    if not issues:
        decl_index = {v.name: i for i, v in enumerate(model.variables)}
        indeg = {v.name: 0 for v in model.variables}
        children = model.children_map()
        for eq in model.equations:
            indeg[eq.child] = len(eq.parents)
        ready = [n for n, d in indeg.items() if d == 0]

        def rank(name):
            return (var_map[name].role != Role.BACKGROUND, decl_index[name])

        ready.sort(key=rank)
        while ready:
            node = ready.pop(0)
            order.append(node)
            changed = False
            for c in children[node]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort(key=rank)
        if len(order) != len(model.variables):
            cyclic = sorted(n for n, d in indeg.items() if d > 0 and n not in order)
            issues.append(ValidationIssue(
                "CycleDetected", f"cycle through {cyclic}"))
            order = []

    return ValidationResult(ok=not issues, issues=tuple(issues),
                            topological_order=tuple(order))


def require_valid(model: CausalModel) -> tuple[str, ...]:
    result = validate_model(model)
    result.raise_if_invalid()
    return result.topological_order


# ---------------------------------------------------------------------------
# sampling


def _values_dtype(values) -> type:
    """The column dtype for values drawn from `values`: int64 when every one
    is an int, float64 when every one is a number, otherwise object."""
    if all(isinstance(v, (int, np.integer)) for v in values):
        return np.int64
    if all(isinstance(v, _NUMBER) for v in values):
        return np.float64
    return object


def _decode(values, codes: np.ndarray) -> np.ndarray:
    """values[codes] as a column of the dtype _values_dtype gives `values`."""
    return np.array(values, dtype=object)[codes].astype(_values_dtype(values), copy=False)


def _prior_column(prior: Prior, u: np.ndarray) -> np.ndarray:
    if isinstance(prior, NormalPrior):
        if prior.std == 0.0:
            return np.full(u.shape, prior.mean, dtype=np.float64)
        return prior.mean + prior.std * ndtri(u)
    cum = np.cumsum(prior.probs)
    cum[-1] = 1.0
    return _decode(prior.values, np.searchsorted(cum, u, side="right"))


def _linear_predictor(eq, values: dict[str, np.ndarray], n: int) -> np.ndarray:
    """intercept + sum of weight * parent over n rows, as float64."""
    eta = np.full(n, float(eq.family.intercept))
    for w, p in zip(eq.family.weights, eq.parents):
        eta += w * np.asarray(values[p], dtype=np.float64)
    return eta


def _table_column(eq, values: dict[str, np.ndarray], n: int) -> np.ndarray:
    mapping = eq.family.mapping
    dtype = _values_dtype(mapping.values())
    if not eq.parents:
        return np.full(n, mapping[()], dtype=dtype)
    keys = zip(*(values[p].tolist() for p in eq.parents))
    return np.array([mapping[key] for key in keys], dtype=object).astype(dtype, copy=False)


# rates up to this bound start a stepwise search from a Cornish-Fisher guess;
# larger rates, elements the search leaves unsettled and elements whose u lies
# just above the CDF one below the result use scipy's formula (there the
# rounding of its root-find decides the answer)
_POISSON_SEARCH_MAX_RATE = 1e3
_POISSON_SEARCH_STEPS = 8
_POISSON_GUARD = 1e-10


def _poisson_search(u: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step from a Cornish-Fisher guess to the smallest k with pdtr(k, lam) >= u.

    Returns k and the mask of elements that settled within the step limit
    and outside the guard band.
    """
    z = ndtri(u)
    k = np.maximum(np.floor(lam + np.sqrt(lam) * z + (z * z - 1.0) / 6.0), 0.0)
    below = np.zeros(k.size)  # pdtr(k - 1, lam) once settled, 0 at k = 0
    cdf = pdtr(k, lam)
    low = cdf < u  # a NaN CDF steps down, is never settled and falls back
    up, down = np.flatnonzero(low), np.flatnonzero(~low)
    cdf = cdf[up]
    # step up while the CDF at k is below u ...
    for _ in range(_POISSON_SEARCH_STEPS):
        if not up.size:
            break
        below[up] = cdf
        k[up] += 1.0
        cdf = pdtr(k[up], lam[up])
        keep = cdf < u[up]
        up, cdf = up[keep], cdf[keep]
    # ... or down while the CDF one below k still reaches u
    for step in range(_POISSON_SEARCH_STEPS + 1):
        down = down[k[down] > 0.0]
        cdf = pdtr(k[down] - 1.0, lam[down])
        keep = cdf >= u[down]
        below[down[~keep]] = cdf[~keep]
        down = down[keep]
        if not down.size or step == _POISSON_SEARCH_STEPS:
            break
        k[down] -= 1.0
    settled = u - below > _POISSON_GUARD * u
    settled[up] = False
    settled[down] = False
    return k, settled


def _poisson_quantile(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Poisson inverse CDF as float64.

    Equals scipy.stats.poisson.ppf(u, lam) for u in (0, 1) and lam >= 0, the
    only inputs here, including NaN where scipy's root-find fails (rates of
    about 1e11 and up).
    """
    k = np.empty(u.shape)
    search = lam <= _POISSON_SEARCH_MAX_RATE
    k[search], settled = _poisson_search(u[search], lam[search])
    rest = ~search
    rest[np.flatnonzero(search)[~settled]] = True
    if rest.any():
        # scipy.stats.poisson._ppf, which rv_discrete.ppf calls for u in (0, 1)
        ur, lr = u[rest], lam[rest]
        v = np.ceil(pdtrik(ur, lr))
        v1 = np.maximum(v - 1.0, 0.0)
        k[rest] = np.where(pdtr(v1, lr) >= ur, v1, v)
    return k


def _noiseless(eq: StructuralEquation | None) -> bool:
    """True for a lookup table or a zero-noise LinearGaussian (no uniforms read)."""
    fam = None if eq is None else eq.family
    return isinstance(fam, DeterministicTable) or (
        isinstance(fam, LinearGaussian) and fam.noise_std == 0.0)


def evaluate_equation(eq: StructuralEquation, values: dict[str, np.ndarray],
                      u: np.ndarray | None, n: int) -> np.ndarray:
    """One column from one equation given parent columns and uniforms u."""
    fam = eq.family
    if isinstance(fam, DeterministicTable):
        return _table_column(eq, values, n)
    eta = _linear_predictor(eq, values, n)
    if isinstance(fam, LinearGaussian):
        if fam.noise_std == 0.0:
            return eta
        return eta + fam.noise_std * ndtri(u)
    if isinstance(fam, BernoulliLogit):
        p = expit(eta)
        return (u < p).astype(np.int64)
    # PoissonLogLink
    lam = np.exp(eta)
    if not np.all(np.isfinite(lam)):
        raise NonFiniteDensity(f"{eq.child}: Poisson rate overflowed")
    k = _poisson_quantile(u, lam)
    if not np.all(np.isfinite(k)):
        raise NonFiniteDensity(f"{eq.child}: Poisson quantile is not finite")
    return k.astype(np.int64)


def forward_eval(model: CausalModel, given: dict[str, np.ndarray], n: int,
                 seed: int, salt: int = 0, *, rows=None) -> dict[str, np.ndarray]:
    """Evaluate all equations forward, taking `given` columns as fixed.

    Noise is keyed by (seed, salt, variable name, row key), so two calls with
    the same seed share draws variable-by-variable regardless of which
    equations were replaced in between. Every step is elementwise, so a row
    depends on its key (`rows`, default arange(n)) and given values alone.
    `given` must cover every prior-backed variable that feeds an equation, or
    the prior is drawn here. _noiseless equations draw no uniforms.
    """
    order = require_valid(model)
    values: dict[str, np.ndarray] = {}
    rows = np.arange(n, dtype=np.uint64) if rows is None else np.asarray(rows)
    if rows.shape != (n,):
        raise DimensionMismatch(f"rows must hold {n} keys, got shape {rows.shape}")
    eq_map = model.equation_map
    prior_map = model.prior_map
    for name in order:
        if name in given:
            col = np.asarray(given[name])
            if col.shape != (n,):
                col = np.broadcast_to(col, (n,)).copy()
            values[name] = col
            continue
        eq = eq_map.get(name)
        u = None if _noiseless(eq) else rng.uniforms(seed, salt, rng.name_key(name), rows)
        if eq is not None:
            values[name] = evaluate_equation(eq, values, u, n)
        else:
            values[name] = _prior_column(prior_map[name], u)
    return values


def ancestral_sample(model: CausalModel, n: int, seed: int) -> Dataset:
    """Sample n rows in topological order; deterministic given seed."""
    order = require_valid(model)
    if n < 0:
        raise DimensionMismatch(f"row count must be at least 0, got {n}")
    values = forward_eval(model, {}, n, seed)
    domains = {v.name: v.domain for v in model.variables if v.domain is not None}
    return Dataset(tuple(order), {k: values[k] for k in order}, domains)


# ---------------------------------------------------------------------------
# surgery


def constant_equation(model: CausalModel, name: str, value) -> StructuralEquation:
    var = model.variable(name)
    if var.domain is None:
        return StructuralEquation(name, (), LinearGaussian(float(value), (), 0.0))
    return StructuralEquation(name, (), DeterministicTable({(): value}))


def intervene(model: CausalModel, assignments: dict) -> CausalModel:
    """Replace each assigned variable's mechanism with the constant value."""
    for name, value in assignments.items():
        var = model.variable(name)
        if var.role == Role.BACKGROUND:
            raise InterveneOnBackground(f"cannot intervene on background variable {name}")
        if not model.value_in_domain(name, value):
            raise UnattainableValue(f"{name} cannot take value {value!r}")
    new_equations = [eq for eq in model.equations if eq.child not in assignments]
    new_equations += [constant_equation(model, name, value)
                      for name, value in assignments.items()]
    new_priors = [(n, p) for n, p in model.priors if n not in assignments]
    # keep equation order aligned with variable declaration for determinism
    decl = {v.name: i for i, v in enumerate(model.variables)}
    new_equations.sort(key=lambda e: decl[e.child])
    return CausalModel(model.variables, new_equations, new_priors)


def _reachable(names, step) -> set:
    """names plus every node reached from them through step(node)."""
    reached = set(names)
    frontier = list(reached)
    while frontier:
        for nxt in step(frontier.pop()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def descendants(model: CausalModel, of) -> frozenset:
    """The intervened set itself plus everything reachable from it."""
    names = [of] if isinstance(of, str) else list(of)
    for name in names:
        model.variable(name)
    return frozenset(_reachable(names, model.children_map().__getitem__))


def _ancestor_closure(model: CausalModel, names) -> set:
    """names plus every node reached from them through equation parents."""
    eq_map = model.equation_map
    return _reachable(names, lambda node: eq_map[node].parents if node in eq_map else ())


def _ancestors_only(model: CausalModel, names) -> tuple[CausalModel, set]:
    """model restricted to the ancestor closure of names, and that closure.

    forward_eval keys noise by variable name, so the pruned model gives the
    same draws of these names as the whole one, without evaluating the rest.
    """
    needed = _ancestor_closure(model, names)
    pruned = CausalModel([v for v in model.variables if v.name in needed],
                         [e for e in model.equations if e.child in needed],
                         [(n, p) for n, p in model.priors if n in needed])
    return pruned, needed


def _exogenous_names(model: CausalModel) -> tuple[str, ...]:
    """Backgrounds first, then prior-backed roots, in declaration order."""
    prior_names = set(model.prior_map)
    roots = [v.name for v in model.variables
             if v.role != Role.BACKGROUND and v.name in prior_names]
    return model.background + tuple(roots)


def non_descendants(model: CausalModel, of) -> frozenset:
    """Variables with no directed path from the given set (the set excluded)."""
    reached = descendants(model, of)
    return frozenset(v.name for v in model.variables) - reached


# ---------------------------------------------------------------------------
# JSON model spec


_FAMILY_TAGS = {
    LinearGaussian: "linear_gaussian",
    PoissonLogLink: "poisson_log_link",
    BernoulliLogit: "bernoulli_logit",
    DeterministicTable: "deterministic_table",
}


def _family_to_json(fam: Family) -> tuple[str, dict]:
    tag = _FAMILY_TAGS[type(fam)]
    if isinstance(fam, LinearGaussian):
        return tag, {"intercept": fam.intercept, "weights": list(fam.weights),
                     "noise_std": fam.noise_std}
    if isinstance(fam, (PoissonLogLink, BernoulliLogit)):
        return tag, {"intercept": fam.intercept, "weights": list(fam.weights)}
    return tag, {"entries": [{"key": list(k), "value": v} for k, v in fam.entries]}


def _family_from_json(tag: str, params: dict) -> Family:
    if tag == "linear_gaussian":
        return LinearGaussian(params["intercept"], tuple(params["weights"]),
                              params["noise_std"])
    if tag == "poisson_log_link":
        return PoissonLogLink(params["intercept"], tuple(params["weights"]))
    if tag == "bernoulli_logit":
        return BernoulliLogit(params["intercept"], tuple(params["weights"]))
    if tag == "deterministic_table":
        return DeterministicTable({tuple(e["key"]): e["value"] for e in params["entries"]})
    raise UnknownVariable(f"unknown equation family {tag!r}")


def model_to_json(model: CausalModel) -> dict:
    variables = [{"name": v.name, "role": v.role.value,
                  "domain": "real" if v.domain is None else list(v.domain)}
                 for v in model.variables]
    equations = []
    for eq in model.equations:
        tag, params = _family_to_json(eq.family)
        equations.append({"child": eq.child, "parents": list(eq.parents),
                          "family": tag, "params": params})
    priors = {}
    for name, prior in model.priors:
        if isinstance(prior, NormalPrior):
            priors[name] = {"dist": "normal", "mean": prior.mean, "std": prior.std}
        else:
            priors[name] = {"dist": "categorical", "values": list(prior.values),
                            "probs": list(prior.probs)}
    return {"variables": variables, "equations": equations, "priors": priors}


def model_from_json(spec: dict) -> CausalModel:
    variables = []
    for v in spec["variables"]:
        domain = None if v["domain"] == "real" else tuple(v["domain"])
        variables.append(Variable(v["name"], Role(v["role"]), domain))
    equations = [StructuralEquation(e["child"], tuple(e["parents"]),
                                    _family_from_json(e["family"], e["params"]))
                 for e in spec["equations"]]
    priors = []
    for name, p in spec["priors"].items():
        if p["dist"] == "normal":
            priors.append((name, NormalPrior(p["mean"], p["std"])))
        elif p["dist"] == "categorical":
            priors.append((name, CategoricalPrior(tuple(p["values"]), tuple(p["probs"]))))
        else:
            raise UnknownVariable(f"unknown prior dist {p['dist']!r}")
    return CausalModel(variables, equations, priors)


def save_model(model: CausalModel, path, fit_meta: dict | None = None) -> None:
    spec = model_to_json(model)
    if fit_meta is not None:
        spec["fit_meta"] = fit_meta
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> CausalModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
