"""Abduction, action, prediction.

Abduction recovers the posterior over exogenous state (background variables
plus any unobserved prior-backed roots) given evidence on endogenous
variables. One function, _exact_route, validates the evidence and picks the
route for every caller (exogenous_draws, posterior_draw_matrix,
exact_available, abduct_exact):

* exact: joint-normal conditioning when every equation on a path relevant to
  the evidence is LinearGaussian (or a numeric constant) and every unobserved
  exogenous prior is normal. Observed prior-backed roots (a protected
  attribute, say) are plugged in as constants, so finite-domain protected
  variables do not break exactness. Degenerate directions (singular values
  below 1e-10) are treated as deterministic; jointly impossible evidence
  raises SingularConditioning.

* MCMC (abduct_records): random-walk Metropolis, vectorised across records.
  Continuous components move by Gaussian steps of size proposal_std;
  finite-domain components are re-proposed uniformly over their domain
  (symmetric, so no Hastings correction). Evidence on zero-noise
  LinearGaussian children whose dependence reaches only continuous normal
  priors is eliminated exactly before sampling, reducing the sampled
  dimension; jointly impossible evidence raises ZeroPosteriorMass. Evidence
  on deterministic tables becomes a hard indicator. Unobserved stochastic
  ancestors of the evidence join the state as auxiliary dimensions (their
  conditional densities multiply the target); unobserved Poisson ancestors
  are not supported.

Both routes build affine forms of the evidence with one builder (_Affine) and
solve them with one SVD (_solve); the exact route's coordinates are standard
normals plus equation noises, the sampler's are the normal priors' values.

Prediction (counterfactual_sample) replaces equations per the intervention
and evaluates forward once per posterior draw. Equation noise is redrawn,
keyed by (seed, draw, variable name), so runs that differ only in the
intervention share noise variable-by-variable: non-descendants of the
intervened set reproduce bit-identically across such runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import gammaln, log_expit, ndtri

from . import rng
from .dataset import Dataset
from .errors import (
    EvidenceOnBackground,
    NonFiniteDensity,
    NotLinearGaussian,
    SingularConditioning,
    UnattainableValue,
    ZeroPosteriorMass,
)
from .scm import (
    BernoulliLogit,
    CausalModel,
    DeterministicTable,
    LinearGaussian,
    NormalPrior,
    PoissonLogLink,
    Role,
    _linear_predictor,
    forward_eval,
    intervene,
    require_valid,
)

_SVD_CUTOFF = 1e-10
_CONSISTENCY_TOL = 1e-8
_NUMBER = (int, float, np.integer, np.floating)

# stream tags so the counter-based keys of distinct passes never collide
_TAG_MH = 11
_TAG_INDEP = 12
_TAG_EXACT = 13
_TAG_PREDICT = 14

# values per block of MH randomness: a chain's (step, slot) keys are folded and
# transformed this many at a time, so the block's memory stays bounded at any
# record count while the per-step hashing cost is paid once per block
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class McmcConfig:
    chains: int = 2
    burn_in: int = 500
    kept: int = 100
    thin: int = 5
    proposal_std: float = 0.5
    seed: int = 0

    @property
    def draws(self) -> int:
        return self.chains * self.kept


def validate_evidence(model: CausalModel, evidence: dict) -> None:
    """Check one record's evidence; the checks of _validate_evidence_cols."""
    _validate_evidence_cols(model, _record_cols(evidence))


def _validate_evidence_cols(model: CausalModel, evidence_cols: dict[str, np.ndarray]) -> None:
    for name, col in evidence_cols.items():
        var = model.variable(name)
        if var.role == Role.BACKGROUND:
            raise EvidenceOnBackground(f"evidence on background variable {name}")
        col = np.asarray(col)
        if var.domain is None:
            if col.dtype.kind not in "biuf" and not (
                    col.dtype == object and all(isinstance(v, _NUMBER) for v in col.tolist())):
                raise UnattainableValue(f"{name}: evidence contains non-numeric values")
            if not np.all(np.isfinite(col.astype(np.float64))):
                raise UnattainableValue(f"{name}: evidence contains non-finite values")
        else:
            allowed = set(var.domain)
            bad = [v for v in dict.fromkeys(col.tolist()) if v not in allowed]
            if bad:
                raise UnattainableValue(f"{name} cannot take value {bad[0]!r}")


def _record_cols(evidence: dict) -> dict[str, np.ndarray]:
    """One record's evidence as columns; a string keeps an object column."""
    return {k: np.array([v], dtype=object) if isinstance(v, str) else np.array([v])
            for k, v in evidence.items()}


def _ancestor_closure(model: CausalModel, names) -> set:
    eq_map = model.equation_map
    seen = set()
    frontier = list(names)
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        eq = eq_map.get(node)
        if eq:
            frontier.extend(eq.parents)
    return seen


def _exogenous_names(model: CausalModel) -> tuple[str, ...]:
    """Backgrounds first, then prior-backed roots, in declaration order."""
    prior_names = set(model.prior_map)
    roots = [v.name for v in model.variables
             if v.role != Role.BACKGROUND and v.name in prior_names]
    return model.background + tuple(roots)


# ---------------------------------------------------------------------------
# linear-Gaussian core, shared by both routes


class _Affine:
    """Affine forms (offset (records,), coeffs (dim,)) of model nodes over a basis.

    `coords` fixes the forms of basis variables; `plugged` nodes take their
    observed per-record values; `noise` maps a LinearGaussian node with noise
    to the basis position of that noise. Every other node is expanded through
    its equation. A node whose form is None is not affine in the basis: a
    non-numeric observation, a node outside the linear-Gaussian families, or
    a noisy node without a noise coordinate.
    """

    def __init__(self, eq_map, n_records: int, dim: int, coords: dict,
                 plugged: dict[str, np.ndarray], noise: dict[str, int]):
        self.eq_map = eq_map
        self.n = n_records
        self.dim = dim
        self.noise = noise
        self.forms = dict(coords)
        for name, col in plugged.items():
            try:
                self.forms[name] = (np.asarray(col, dtype=np.float64), np.zeros(dim))
            except (TypeError, ValueError):
                self.forms[name] = None

    def form(self, name: str):
        if name not in self.forms:
            eq = self.eq_map.get(name)
            self.forms[name] = None if eq is None else self.equation(eq)
        return self.forms[name]

    def equation(self, eq):
        """The form of eq's right-hand side, ignoring any plugged value of its child."""
        fam = eq.family
        if isinstance(fam, DeterministicTable) and not eq.parents:
            # constant assignment (e.g. a finite-domain intervention)
            value = fam.mapping[()]
            if not isinstance(value, _NUMBER):
                return None
            return np.full(self.n, float(value)), np.zeros(self.dim)
        if not isinstance(fam, LinearGaussian) or (
                fam.noise_std != 0.0 and eq.child not in self.noise):
            return None
        offset = np.full(self.n, float(fam.intercept))
        vec = np.zeros(self.dim)
        for w, p in zip(fam.weights, eq.parents):
            rep = self.form(p)
            if rep is None:
                return None
            offset = offset + w * rep[0]
            vec = vec + w * rep[1]
        if fam.noise_std != 0.0:
            vec[self.noise[eq.child]] = fam.noise_std
        return offset, vec


def _solve(rows: list, rhs: list, dim: int, n_records: int, full_matrices: bool,
           impossible: type, mean0: np.ndarray | None = None):
    """Least-norm solution x (records, dim) of rows @ x = rhs, per record.

    With mean0, x is the solution nearest mean0. Singular values at or below
    _SVD_CUTOFF times the largest are dropped; a record whose equations have
    no solution raises `impossible`. Returns (x, vt, rank): the first rank
    rows of vt span the constrained directions, the rest (full_matrices
    only) the free ones.
    """
    if not rows:
        x = np.zeros((dim, n_records)) if mean0 is None else np.repeat(mean0[:, None], n_records, 1)
        return x.T, np.eye(dim), 0
    matrix = np.array(rows)
    target = np.array(rhs)  # (k, records)
    u, s, vt = np.linalg.svd(matrix, full_matrices=full_matrices)
    rank = int((s > _SVD_CUTOFF * s.max(initial=1.0)).sum())
    pinv = vt[:rank].T / s[:rank] @ u[:, :rank].T
    if mean0 is None:
        x = pinv @ target
    else:
        x = mean0[:, None] + pinv @ (target - matrix @ mean0[:, None])
    residual = matrix @ x - target
    scale = 1.0 + np.abs(target).max(initial=0.0)
    bad = np.abs(residual).max(axis=0, initial=0.0) > _CONSISTENCY_TOL * scale
    if bad.any():
        raise impossible(
            f"evidence jointly impossible for record(s) {np.flatnonzero(bad)[:5].tolist()}")
    return x.T, vt, rank


def _gaussian_draws(mean: np.ndarray, cov: np.ndarray, shape: tuple, normals) -> np.ndarray:
    """mean + z @ root.T, root the eigh square root of cov; z[..., k] = normals(k) of `shape`."""
    d = cov.shape[0]
    if not d:
        return mean + np.zeros(shape + (0,))
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    z = np.stack([normals(k) for k in range(d)], axis=-1)
    return mean + z @ root.T


# ---------------------------------------------------------------------------
# exact route


@dataclass
class GaussianPosterior:
    """Joint normal over exogenous variables; zero-variance entries are point masses."""

    names: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def point_mass(self, tol: float = 1e-9) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None)) <= tol

    def sample(self, n: int, seed: int, salt: int = 0) -> np.ndarray:
        """(n, len(names)) draws, counter-keyed and deterministic."""
        rows = np.arange(n, dtype=np.uint64)
        return _gaussian_draws(self.mean, self.cov, (n,),
                               lambda k: rng.normals(seed, _TAG_EXACT, salt, k, rows))


def _exact_route(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                 names: tuple[str, ...] | None = None):
    """Validate the evidence and choose the abduction route.

    Returns the exact posterior of `names` (default: every unobserved
    exogenous variable) as per-record means (records, d) and a shared
    covariance (d, d), or None when a path relevant to the evidence is not
    linear-Gaussian, so that the MH sampler must be used. Conditioning runs
    over one standard-normal coordinate per unobserved exogenous variable and
    one per noisy LinearGaussian ancestor of the evidence.
    """
    order = require_valid(model)
    _validate_evidence_cols(model, evidence_cols)
    n_records = len(next(iter(evidence_cols.values()))) if evidence_cols else 1
    prior_map = model.prior_map
    latent = [n for n in _exogenous_names(model) if n not in evidence_cols]
    if names is None:
        names = tuple(latent)
    elif any(n in evidence_cols for n in names):
        raise EvidenceOnBackground("requested draws for a variable that is observed")
    if not all(isinstance(prior_map[n], NormalPrior) for n in latent):
        return None

    closure = _ancestor_closure(model, evidence_cols)
    eq_map = model.equation_map
    noisy = [n for n in order if n in closure and n in eq_map
             and isinstance(eq_map[n].family, LinearGaussian) and eq_map[n].family.noise_std > 0]
    noise = {name: len(latent) + i for i, name in enumerate(noisy)}
    dim = len(latent) + len(noise)
    coords = {name: (np.full(n_records, prior_map[name].mean), prior_map[name].std * np.eye(dim)[j])
              for j, name in enumerate(latent)}
    plugged = {k: v for k, v in evidence_cols.items() if k in prior_map}
    affine = _Affine(eq_map, n_records, dim, coords, plugged, noise)

    rows, rhs = [], []
    for name, col in evidence_cols.items():
        if name in prior_map:
            continue  # plugged constant; consistency is domain membership
        rep = affine.form(name)
        if rep is None:
            return None
        rows.append(rep[1])
        rhs.append(np.asarray(col, dtype=np.float64) - rep[0])
    z_means, vt, rank = _solve(rows, rhs, dim, n_records, False, SingularConditioning)
    z_cov = np.eye(dim) - vt[:rank].T @ vt[:rank]

    idx = np.array([latent.index(n) for n in names], dtype=int)
    scales = np.array([prior_map[n].std for n in names])
    means = np.array([prior_map[n].mean for n in names]) + scales * z_means[:, idx]
    cov = np.outer(scales, scales) * z_cov[np.ix_(idx, idx)]
    return means, cov


def abduct_exact(model: CausalModel, evidence: dict) -> GaussianPosterior:
    """Posterior over the background variables by joint-normal conditioning."""
    exact = _exact_route(model, _record_cols(evidence), model.background)
    if exact is None:
        raise NotLinearGaussian("an evidence path is not linear-Gaussian")
    return GaussianPosterior(model.background, exact[0][0], exact[1])


def exact_available(model: CausalModel, evidence) -> bool:
    return _exact_route(model, _record_cols(dict(evidence))) is not None


# ---------------------------------------------------------------------------
# MCMC route


@dataclass
class PosteriorDraws:
    """Per-record posterior draws over exogenous variables.

    draws has shape (records, chains * kept, len(names)); acceptance holds the
    post-burn-in acceptance rate per (record, chain).
    """

    names: tuple[str, ...]
    draws: np.ndarray
    acceptance: np.ndarray

    def matrix(self, record: int = 0) -> np.ndarray:
        return self.draws[record]

    def column(self, name: str, record: int = 0) -> np.ndarray:
        return self.draws[record, :, self.names.index(name)]


class _Target:
    """Vectorised log-density of (state, evidence) across records.

    Finite-domain quantities are int codes into a value list (`values_of`):
    categorical and Bernoulli state, evidence feeding a lookup table, and the
    tables themselves, compiled to dense arrays indexed by parent codes. The
    model's maps, linear predictors and prior pmfs are resolved once here, so
    a step does array arithmetic only.
    """

    def __init__(self, model: CausalModel, evidence_cols: dict[str, np.ndarray],
                 n_records: int, order: tuple[str, ...]):
        self.model = model
        self.n = n_records
        self.evidence = {k: np.asarray(v) for k, v in evidence_cols.items()}
        self.order = order
        prior_map = self.prior_map = model.prior_map
        eq_map = self.eq_map = model.equation_map
        closure = _ancestor_closure(model, evidence_cols)

        self.cont_prior: list[str] = []    # normal-prior exogenous in the state
        self.disc_prior: list[str] = []    # categorical-prior exogenous in the state
        self.aux_cont: list[str] = []      # latent LinearGaussian (noise > 0)
        self.aux_disc: list[str] = []      # latent BernoulliLogit
        self.determined: list[str] = []    # latent zero-noise / table nodes, resolved
        self.lik_nodes: list[str] = []     # evidence with stochastic equations
        self.indicator_nodes: list[str] = []  # evidence equal to a resolved value
        self.eliminate_nodes: list[str] = []  # evidence on zero-noise linear chains

        for name in order:
            in_ev = name in self.evidence
            if name in prior_map:
                if in_ev or name not in closure:
                    continue
                if isinstance(prior_map[name], NormalPrior):
                    self.cont_prior.append(name)
                else:
                    self.disc_prior.append(name)
                continue
            if name not in closure and not in_ev:
                continue
            fam = eq_map[name].family
            if in_ev:
                if isinstance(fam, LinearGaussian) and fam.noise_std == 0.0:
                    self.eliminate_nodes.append(name)
                elif isinstance(fam, DeterministicTable):
                    # resolved forward and required to equal the observed value
                    self.indicator_nodes.append(name)
                    self.determined.append(name)
                else:
                    self.lik_nodes.append(name)
                continue
            # latent ancestor of the evidence
            if isinstance(fam, LinearGaussian) and fam.noise_std > 0:
                self.aux_cont.append(name)
            elif isinstance(fam, BernoulliLogit):
                self.aux_disc.append(name)
            elif isinstance(fam, PoissonLogLink):
                raise NonFiniteDensity(
                    f"{name}: latent Poisson ancestors of the evidence are not supported")
            else:
                self.determined.append(name)

        # linear elimination system over cont_prior coordinates
        self._build_elimination(prior_map, eq_map)
        self._compile()

    def _build_elimination(self, prior_map, eq_map):
        """Solve zero-noise linear evidence for the cont_prior values exactly.

        Evidence that resolves through discrete state only, or not at all
        through cont_prior, becomes an indicator instead.
        """
        d = len(self.cont_prior)
        coords = {name: (np.zeros(self.n), np.eye(d)[j]) for j, name in enumerate(self.cont_prior)}
        affine = _Affine(eq_map, self.n, d, coords, self.evidence, {})
        rows, rhs = [], []
        for name in list(self.eliminate_nodes):
            # the node's own equation, not its plugged observed value
            rep = affine.equation(eq_map[name])
            if rep is None:
                anc = _ancestor_closure(self.model, [name]) - {name}
                if anc & (set(self.cont_prior) | set(self.aux_cont)):
                    raise NonFiniteDensity(
                        f"{name}: zero-noise evidence child mixes continuous latents "
                        "and non-linear structure")
            if rep is None or not rep[1].any():
                self.eliminate_nodes.remove(name)
                self.indicator_nodes.append(name)
                self.determined.append(name)
                continue
            rows.append(rep[1])
            rhs.append(np.asarray(self.evidence[name], dtype=np.float64) - rep[0])
        determined = set(self.determined)
        self.determined = [n for n in self.order if n in determined]

        self.prior_mean = np.array([prior_map[n].mean for n in self.cont_prior])
        self.prior_std = np.array([max(prior_map[n].std, 0.0) for n in self.cont_prior])
        self.part_solution, vt, rank = _solve(rows, rhs, d, self.n, True, ZeroPosteriorMass,
                                              self.prior_mean)
        self.null_basis = vt[rank:].T  # (d, f)
        self.free_dim = self.null_basis.shape[1]

    def _compile(self):
        """Int codes, dense tables, linear predictors and pmfs, built once."""
        eq_map = self.eq_map
        var_map = self.model.variable_map
        self.disc_names = self.disc_prior + self.aux_disc
        self.values_of = {n: _domain_of(self.model, n) for n in self.disc_names}
        self.tables: dict[str, np.ndarray] = {}
        table_parents = set()
        for name in self.determined:
            fam = eq_map[name].family
            if isinstance(fam, DeterministicTable):
                # a real-valued table child is coded over its distinct entries
                domain = var_map[name].domain
                self.values_of[name] = (domain if domain is not None
                                        else tuple(dict.fromkeys(fam.mapping.values())))
                table_parents.update(eq_map[name].parents)
        for name in self.determined:
            if name in self.values_of:
                self.tables[name] = self._dense_table(name, var_map)

        # evidence feeding a table, as codes into the parent's domain
        self.base_codes = {}
        for name, col in self.evidence.items():
            if name in table_parents:
                index = _index_of(var_map[name].domain)
                self.base_codes[name] = np.array([index[v] for v in col.tolist()], dtype=np.intp)

        # parents of every node whose density or value needs a linear predictor
        eta_nodes = (self.aux_cont + self.aux_disc + self.lik_nodes
                     + [n for n in self.determined if n not in self.tables])
        need_float = {p for n in eta_nodes for p in eq_map[n].parents}
        need_float.update(self.aux_disc, self.lik_nodes)
        self.numeric = {n: np.asarray(self.values_of[n], dtype=np.float64)
                        for n in self.values_of if n in need_float}
        self.base_num = {n: np.asarray(col, dtype=np.float64)
                         for n, col in self.evidence.items() if n in need_float}
        self.poisson_const = {n: gammaln(self.base_num[n] + 1.0) for n in self.lik_nodes
                              if isinstance(eq_map[n].family, PoissonLogLink)}

        with np.errstate(divide="ignore"):
            self.log_pmf = {}
            for name in self.disc_prior:
                prior = self.prior_map[name]
                pmf = {v: p for v, p in zip(prior.values, prior.probs)}
                self.log_pmf[name] = np.log(np.array([pmf.get(v, 0.0) for v in self.values_of[name]]))

        # evidence checks: a table's code must match the observed value (exact
        # equality, per record and code); a zero-noise linear value must lie
        # within 1e-9 of a numeric observation
        self.rows = np.arange(self.n)
        self.table_checks = []
        self.linear_checks = []
        for name in self.indicator_nodes:
            want = self.evidence[name]
            if name in self.tables:
                values = self.values_of[name]
                match = np.array([[v == w for v in values] for w in want.tolist()],
                                 dtype=bool).reshape(self.n, len(values))
                self.table_checks.append((name, match))
            else:
                self.linear_checks.append((name, want.astype(np.float64), want.dtype.kind in "fiub"))

    def _dense_table(self, name, var_map) -> np.ndarray:
        eq = self.eq_map[name]
        mapping = eq.family.mapping
        index = _index_of(self.values_of[name])
        domains = [var_map[p].domain for p in eq.parents]
        dense = np.empty(tuple(len(d) for d in domains), dtype=np.intp)
        for codes in product(*(range(len(d)) for d in domains)):
            dense[codes] = index[mapping[tuple(d[c] for d, c in zip(domains, codes))]]
        return dense

    # -- state handling --------------------------------------------------

    def cont_values(self, t: np.ndarray) -> np.ndarray:
        """Reconstruct cont_prior values (R, d) from free coordinates t (R, f)."""
        if not self.cont_prior:
            return self.part_solution
        return self.part_solution + t @ self.null_basis.T

    def resolve(self, cont: np.ndarray, codes: np.ndarray, aux_c: np.ndarray):
        """(float values, int codes) of every variable the density reads.

        codes holds one column per disc_names entry.
        """
        num = dict(self.base_num)
        cod = dict(self.base_codes)
        for j, name in enumerate(self.cont_prior):
            num[name] = cont[:, j]
        for k, name in enumerate(self.disc_names):
            cod[name] = codes[:, k]
            if name in self.numeric:
                num[name] = self.numeric[name][codes[:, k]]
        for j, name in enumerate(self.aux_cont):
            num[name] = aux_c[:, j]
        for name in self.determined:
            dense = self.tables.get(name)
            if dense is None:
                num[name] = self._eta(name, num)
                continue
            parents = self.eq_map[name].parents
            if parents:
                cod[name] = dense[tuple(cod[p] for p in parents)]
            else:
                cod[name] = np.full(self.n, dense[()], dtype=np.intp)
            if name in self.numeric:
                num[name] = self.numeric[name][cod[name]]
        return num, cod

    def log_density(self, t, codes, aux_c) -> np.ndarray:
        """Per-record log-density; call under np.errstate(divide/invalid="ignore")."""
        cont = self.cont_values(t)
        num, cod = self.resolve(cont, codes, aux_c)
        logp = np.zeros(self.n)
        for j, name in enumerate(self.cont_prior):
            std = self.prior_std[j]
            if std == 0.0:
                logp = np.where(np.abs(cont[:, j] - self.prior_mean[j]) <= 1e-12, logp, -np.inf)
            else:
                logp = logp - 0.5 * ((cont[:, j] - self.prior_mean[j]) / std) ** 2 - math.log(std)
        for k, name in enumerate(self.disc_prior):
            logp = logp + self.log_pmf[name][codes[:, k]]
        for name in self.aux_cont:
            eta = self._eta(name, num)
            sd = self.eq_map[name].family.noise_std
            logp = logp - 0.5 * ((num[name] - eta) / sd) ** 2 - math.log(sd)
        for name in self.aux_disc:
            eta = self._eta(name, num)
            y = num[name]
            logp = logp + y * log_expit(eta) + (1.0 - y) * log_expit(-eta)
        for name in self.lik_nodes:
            eta = self._eta(name, num)
            y = num[name]
            fam = self.eq_map[name].family
            if isinstance(fam, LinearGaussian):
                logp = logp - 0.5 * ((y - eta) / fam.noise_std) ** 2 - math.log(fam.noise_std)
            elif isinstance(fam, BernoulliLogit):
                logp = logp + y * log_expit(eta) + (1.0 - y) * log_expit(-eta)
            else:  # PoissonLogLink
                logp = logp + y * eta - np.exp(eta) - self.poisson_const[name]
        for name, match in self.table_checks:
            logp = np.where(match[self.rows, cod[name]], logp, -np.inf)
        for name, want, loose in self.linear_checks:
            got = num[name]
            ok = np.abs(got - want) <= 1e-9 if loose else got == want
            logp = np.where(ok, logp, -np.inf)
        return np.where(np.isnan(logp), -np.inf, logp)

    def _eta(self, name, num) -> np.ndarray:
        return _linear_predictor(self.eq_map[name], num, self.n)


def _index_of(values: tuple) -> dict:
    """value -> code, the first position of an equal value."""
    index: dict = {}
    for code, v in enumerate(values):
        index.setdefault(v, code)
    return index


def _domain_of(model: CausalModel, name: str) -> tuple:
    var = model.variable(name)
    if var.domain is not None:
        return var.domain
    prior = model.prior_map.get(name)
    if prior is not None and hasattr(prior, "values"):
        return tuple(prior.values)
    return (0, 1)


def _numeric(model: CausalModel, name: str) -> bool:
    """Whether every value the variable can take is a number."""
    domain = model.variable(name).domain
    return domain is None or all(isinstance(v, (int, float, np.integer, np.floating))
                                 for v in domain)


def abduct_records(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                   config: McmcConfig, names: tuple[str, ...] | None = None) -> PosteriorDraws:
    """Vectorised MH over records; the workhorse behind abduct_mcmc.

    evidence_cols maps variable name to a column of per-record values.
    Randomness is keyed by (seed, position of the record in this batch,
    chain, step, slot), so results are bit-identical for the same batch and
    seed, but a record's draws change when it sits at another position (see
    ROADMAP.md, direction 4, for keying by a stable record id). The keys of a
    block of steps are folded onto each chain's (seed, rows, chain) state at
    once, _BLOCK_VALUES values at a time. Draws are float64 when every
    requested variable's domain is numeric, otherwise object. Returned names
    default to all exogenous variables not in the evidence (backgrounds
    first).
    """
    order = require_valid(model)
    n_records = len(next(iter(evidence_cols.values()))) if evidence_cols else 1
    _validate_evidence_cols(model, evidence_cols)
    target = _Target(model, evidence_cols, n_records, order)
    if names is None:
        names = tuple(n for n in _exogenous_names(model) if n not in evidence_cols)
    elif any(n in evidence_cols for n in names):
        raise EvidenceOnBackground("requested draws for a variable that is observed")

    rows = np.arange(n_records, dtype=np.uint64)
    dtype = np.float64 if all(_numeric(model, n) for n in names) else object
    out = np.zeros((n_records, config.chains * config.kept, len(names)), dtype=dtype)
    acceptance = np.zeros((n_records, config.chains))
    ever_finite = np.zeros(n_records, dtype=bool)

    # output columns: continuous state, decoded discrete state, and independent
    # exogenous variables (posterior equals prior), drawn directly
    cont_cols = [(j, target.cont_prior.index(n)) for j, n in enumerate(names)
                 if n in target.cont_prior]
    disc_cols = [(j, target.disc_names.index(n), np.array(list(target.values_of[n]), dtype=dtype))
                 for j, n in enumerate(names) if n in target.disc_names]
    covered = set(target.cont_prior) | set(target.disc_names) | set(evidence_cols)
    independent = [(j, n) for j, n in enumerate(names) if n not in covered]

    n_cont = target.free_dim + len(target.aux_cont)
    n_disc = len(target.disc_names)
    sizes = np.array([len(target.values_of[n]) for n in target.disc_names], dtype=np.intp)
    # per-step slots: continuous moves, discrete re-proposals, the accept test
    slots = np.arange(n_cont + n_disc + 1, dtype=np.uint64)
    block = max(1, _BLOCK_VALUES // max(1, n_records * len(slots)))
    total_steps = config.burn_in + config.kept * config.thin

    # impossible states score -inf (log 0, inf - inf) and are rejected
    with np.errstate(divide="ignore", invalid="ignore"):
        for chain in range(config.chains):
            t = np.zeros((n_records, target.free_dim))
            aux_c = _init_aux(target)
            codes = _init_disc(target)
            logp = target.log_density(t, codes, aux_c)
            if not np.all(np.isfinite(logp)):
                codes, logp = _feasible_init(target, t, aux_c, codes, logp)
            ever_finite |= np.isfinite(logp)

            head = rng.key_bits(config.seed, _TAG_MH, rows, chain)[None, :, None]
            accepted = np.zeros(n_records)
            kept_i = 0
            for start in range(0, total_steps, block):
                steps = np.arange(start, min(start + block, total_steps), dtype=np.uint64)
                u = rng.bits_to_uniforms(rng.fold_in(head, steps[:, None, None], slots))
                moves = config.proposal_std * ndtri(u[:, :, :n_cont])
                proposals = np.minimum((u[:, :, n_cont:-1] * sizes).astype(np.intp), sizes - 1)
                log_u = np.log(u[:, :, -1])
                for i, step in enumerate(range(start, start + len(steps))):
                    t_new = t + moves[i, :, :target.free_dim] if target.free_dim else t
                    aux_new = aux_c + moves[i, :, target.free_dim:] if target.aux_cont else aux_c
                    logp_new = target.log_density(t_new, proposals[i], aux_new)
                    take = log_u[i] < (logp_new - logp)
                    take |= np.isfinite(logp_new) & ~np.isfinite(logp)
                    if n_cont or n_disc:
                        if target.free_dim:
                            t = np.where(take[:, None], t_new, t)
                        if target.aux_cont:
                            aux_c = np.where(take[:, None], aux_new, aux_c)
                        if n_disc:
                            codes = np.where(take[:, None], proposals[i], codes)
                        logp = np.where(take, logp_new, logp)
                    ever_finite |= np.isfinite(logp)
                    if step >= config.burn_in:
                        accepted += take.astype(float)
                        if (step - config.burn_in + 1) % config.thin == 0:
                            pos = chain * config.kept + kept_i
                            cont = target.cont_values(t)
                            for j, c in cont_cols:
                                out[:, pos, j] = cont[:, c]
                            for j, k, decoded in disc_cols:
                                out[:, pos, j] = decoded[codes[:, k]]
                            kept_i += 1
            acceptance[:, chain] = accepted / max(1, config.kept * config.thin)
            if independent:
                _draw_independent(out, target.prior_map, independent, config, rows, chain)

    if not ever_finite.all():
        raise ZeroPosteriorMass(
            f"no feasible background state for record(s) {np.flatnonzero(~ever_finite)[:5].tolist()}")
    return PosteriorDraws(tuple(names), out, acceptance)


def _init_aux(target: _Target) -> np.ndarray:
    """Start auxiliary continuous nodes at their conditional means."""
    if not target.aux_cont:
        return np.zeros((target.n, 0))
    cont = target.cont_values(np.zeros((target.n, target.free_dim)))
    codes = np.zeros((target.n, len(target.disc_names)), dtype=np.intp)
    num, _ = target.resolve(cont, codes, np.zeros((target.n, len(target.aux_cont))))
    cols = []
    for name in target.aux_cont:
        eta = target._eta(name, num)
        num[name] = eta
        cols.append(eta)
    return np.column_stack(cols)


def _init_disc(target: _Target) -> np.ndarray:
    """Codes of each discrete state variable's prior mode (first value without a prior)."""
    codes = np.zeros((target.n, len(target.disc_names)), dtype=np.intp)
    for k, name in enumerate(target.disc_names):
        prior = target.prior_map.get(name)
        if prior is not None and hasattr(prior, "probs"):
            best = prior.values[int(np.argmax(prior.probs))]
            codes[:, k] = _index_of(target.values_of[name])[best]
    return codes


def _feasible_init(target, t, aux_c, codes, logp):
    """Scan small discrete supports for a per-record feasible assignment."""
    sizes = [len(target.values_of[n]) for n in target.disc_names]
    n_combo = int(np.prod(sizes)) if sizes else 1
    if not sizes or n_combo > 4096:
        return codes, logp
    best = codes.copy()
    best_logp = logp.copy()
    for combo in product(*(range(s) for s in sizes)):
        trial = np.broadcast_to(np.array(combo, dtype=np.intp), codes.shape)
        lp = target.log_density(t, trial, aux_c)
        upgrade = np.isfinite(lp) & ~np.isfinite(best_logp)
        if upgrade.any():
            best = np.where(upgrade[:, None], trial, best)
            best_logp = np.where(upgrade, lp, best_logp)
    return best, best_logp


def _draw_independent(out, prior_map, independent, config, rows, chain):
    """Prior draws for one chain's kept slots, keyed (seed, rows, chain, kept, column)."""
    head = rng.key_bits(config.seed, _TAG_INDEP, rows, chain)[:, None]
    kept = np.arange(config.kept, dtype=np.uint64)
    span = slice(chain * config.kept, (chain + 1) * config.kept)
    for j, name in independent:
        u = rng.bits_to_uniforms(rng.fold_in(head, kept, j))
        prior = prior_map[name]
        if isinstance(prior, NormalPrior):
            out[:, span, j] = prior.mean + prior.std * ndtri(u)
        else:
            cum = np.cumsum(prior.probs)
            cum[-1] = 1.0
            idx = np.searchsorted(cum, u, side="right")
            out[:, span, j] = np.array(list(prior.values), dtype=out.dtype)[idx]


def abduct_mcmc(model: CausalModel, evidence: dict, config: McmcConfig) -> PosteriorDraws:
    """Posterior draws over the background variables for one record."""
    return abduct_records(model, _record_cols(evidence), config,
                          names=tuple(n for n in model.background if n not in evidence))


# ---------------------------------------------------------------------------
# three-step counterfactual


def counterfactual_sample(model: CausalModel, evidence: dict, intervention: dict,
                          n_draws: int, config: McmcConfig) -> Dataset:
    """Abduct exogenous state from evidence, apply the intervention, predict.

    Returns a Dataset of n_draws rows over every variable of the intervened
    model. The exact Gaussian route is used when available, otherwise MCMC
    (draws cycled if n_draws exceeds chains * kept). Equation noise at the
    prediction step is keyed by (seed, draw, variable name) so that calls
    differing only in `intervention` share noise variable-by-variable.
    """
    require_valid(model)
    modified = intervene(model, intervention)  # validates the intervention up front
    exo_draws = exogenous_draws(model, evidence, n_draws, config)
    given = {name: col for name, col in exo_draws.items() if name not in intervention}
    values = forward_eval(modified, given, n_draws,
                          rng.child_seed(config.seed, _TAG_PREDICT), salt=_TAG_PREDICT)
    order = require_valid(modified)
    domains = {v.name: v.domain for v in modified.variables if v.domain is not None}
    return Dataset(tuple(order), {k: values[k] for k in order}, domains)


def exogenous_draws(model: CausalModel, evidence: dict, n_draws: int,
                    config: McmcConfig) -> dict[str, np.ndarray]:
    """Draws of every exogenous variable given evidence, plus pinned observed roots."""
    exo = _exogenous_names(model)
    latent = tuple(n for n in exo if n not in evidence)
    cols = _record_cols(evidence)
    exact = _exact_route(model, cols, latent)
    if exact is None:
        draws = abduct_records(model, cols, config, names=latent).draws[0]
        draws = draws[np.arange(n_draws) % len(draws)]
    else:
        draws = GaussianPosterior(latent, exact[0][0], exact[1]).sample(n_draws, config.seed)
    out = {name: draws[:, j] for j, name in enumerate(latent)}
    for name in exo:
        if name in evidence:
            v = evidence[name]
            out[name] = (np.full(n_draws, v, dtype=object) if isinstance(v, str)
                         else np.full(n_draws, float(v)))
    return out


def posterior_draw_matrix(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                          config: McmcConfig, names: tuple[str, ...]) -> np.ndarray:
    """(records, chains * kept, len(names)) posterior draws for every record.

    The evidence is validated and the route chosen once, by _exact_route: the
    exact joint-normal posterior when every path relevant to the evidence is
    linear-Gaussian, otherwise the record-vectorised MH sampler
    (abduct_records). Both key a record's draws by its position in this
    batch: (seed, position, draw) on the exact route, (seed, position, chain,
    step, slot) on the MH route. Reruns of the same batch are bit-identical,
    but the same record draws differently at another position (ROADMAP.md,
    direction 4, keys by a stable record id instead). Draws are float64 unless
    a requested variable's domain holds a non-number.
    """
    exact = _exact_route(model, evidence_cols, names)
    if exact is None:
        return abduct_records(model, evidence_cols, config, names=names).draws
    means, cov = exact
    rows = np.arange(len(means), dtype=np.uint64)[:, None]
    draw_ids = np.arange(config.draws, dtype=np.uint64)[None, :]
    return _gaussian_draws(means[:, None, :], cov, (len(means), config.draws),
                           lambda k: rng.normals(config.seed, _TAG_EXACT, 1, k, rows, draw_ids))
