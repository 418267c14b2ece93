"""Abduction, action, prediction.

Abduction recovers the posterior over exogenous state (background variables
plus any unobserved prior-backed roots) given evidence on endogenous
variables. One site, _abduct, picks the route and draws for every caller
(exogenous_draws, posterior_draw_matrix); _exact_route validates the
evidence and, for it and for abduct_exact and exact_available, decides
whether the exact route applies:

* exact: joint-normal conditioning when every equation on a path relevant to
  the evidence is LinearGaussian (or a numeric constant) and every unobserved
  exogenous prior is normal. Observed prior-backed roots (a protected
  attribute, say) are plugged in as constants, so finite-domain protected
  variables do not break exactness. Degenerate directions (singular values
  below 1e-10) are treated as deterministic; jointly impossible evidence
  raises SingularConditioning.

* MCMC (abduct_records): random-walk Metropolis, vectorised across records
  and chains. Continuous components move by Gaussian steps of size
  proposal_std; finite-domain components are re-proposed uniformly over their
  domain (symmetric, so no Hastings correction). The state is one continuous block,
  the values of the normal priors and of the latent noisy LinearGaussian
  ancestors of the evidence, plus one discrete block, the categorical priors
  and latent Bernoulli ancestors; the latent nodes' conditional densities
  multiply the target. Evidence on zero-noise LinearGaussian children that
  is affine in the continuous block is eliminated exactly before sampling,
  reducing the sampled dimension; jointly impossible evidence raises
  ZeroPosteriorMass. Evidence on deterministic tables becomes a hard
  indicator. Zero-noise evidence that mixes the continuous block with a
  table or a Bernoulli node, and unobserved Poisson ancestors, are not
  supported (NonFiniteDensity). A record with a chain still in an
  impossible state at the first kept draw raises ZeroPosteriorMass. Steps
  run in blocks whose keyed randomness is drawn at once; without a free
  continuous coordinate a proposal's density does not depend on the chain's
  state, so a block's proposals are scored in one density call and only the
  accept test runs per step. Kept draws are written once per block.

Both routes build affine forms of the evidence with one builder (_Affine) and
solve them with one SVD (_solve); the exact route's coordinates are standard
normals plus equation noises, the sampler's are the continuous block's values.
Both key every draw by the record's id and sum every per-row product in a
fixed order (_row_products), so a record draws alike in any batch.

Prediction (counterfactual_sample) replaces equations per the intervention
and evaluates forward once per posterior draw. Equation noise is redrawn,
keyed by (seed, draw, variable name), so runs that differ only in the
intervention share noise variable-by-variable: non-descendants of the
intervened set reproduce bit-identically across such runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import gammaln, log_expit, ndtri

from . import rng
from .dataset import Dataset
from .errors import (
    DimensionMismatch,
    EvidenceOnBackground,
    NonFiniteDensity,
    NotLinearGaussian,
    SingularConditioning,
    UnattainableValue,
    UnknownVariable,
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
    _NUMBER,
    _ancestor_closure,
    _ancestors_only,
    _decode,
    _exogenous_names,
    _linear_predictor,
    _prior_column,
    _require_integer,
    forward_eval,
    intervene,
    model_to_json,
    require_valid,
)

_SVD_CUTOFF = 1e-10
_CONSISTENCY_TOL = 1e-8

# values per block of MH randomness: the (step, slot) keys of every state row
# (chains x records) are folded and transformed this many at a time, so the
# block's memory stays bounded at any record and chain count while the
# per-step hashing cost is paid once per block. Without a free continuous
# coordinate a block's steps are also scored in one call of the chain's own
# target, with the steps as a leading axis. On a small batch a block's arrays
# are most of the sampler's memory, so the block stays small: one record
# through 2 chains of 10,500 steps with 3 slots fills 4 blocks.
_BLOCK_VALUES = 1 << 14

# the innermost _reuse_passes scope's store: None outside every scope, else a
# dict from _digest keys to kept results (abductions and branch passes)
_REUSE: contextvars.ContextVar = contextvars.ContextVar("cfair_reuse", default=None)


@dataclass(frozen=True)
class McmcConfig:
    chains: int = 2
    burn_in: int = 500
    kept: int = 100
    thin: int = 5
    proposal_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # thin = 0 would keep no draw, a fractional count fails in the sampler,
        # and a fractional seed would key the draws of its integer part
        for name, least in (("chains", 1), ("kept", 1), ("thin", 1), ("burn_in", 0), ("seed", None)):
            value = getattr(self, name)
            _require_integer(value, f"mcmc {name}")
            if least is not None and value < least:
                raise DimensionMismatch(f"mcmc {name} must be at least {least}, got {value!r}")
        if not (math.isfinite(self.proposal_std) and self.proposal_std > 0.0):
            raise DimensionMismatch(
                f"mcmc proposal_std must be finite and positive, got {self.proposal_std!r}")

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


def _abduction_prelude(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                       names: tuple[str, ...] | None):
    """Validate an abduction: (topological order, record count, unobserved
    exogenous names, requested names, by default the unobserved ones)."""
    order = require_valid(model)
    _validate_evidence_cols(model, evidence_cols)
    n_records = len(next(iter(evidence_cols.values()))) if evidence_cols else 1
    latent = tuple(n for n in _exogenous_names(model) if n not in evidence_cols)
    if names is None:
        names = latent
    elif any(n in evidence_cols for n in names):
        raise EvidenceOnBackground("requested draws for a variable that is observed")
    return order, n_records, latent, names


def _constant_column(value, n: int) -> np.ndarray:
    """n copies of an observed value: object for a string, else float64."""
    return np.full(n, value, dtype=object) if isinstance(value, str) else np.full(n, float(value))


def _stacked(draws: np.ndarray, names, others: dict[str, np.ndarray],
             keep=None) -> dict[str, np.ndarray]:
    """m rows per record: draws (records, m, len(names)) flattened per name, then
    each column of `others` whose name is not among them repeated m times;
    only the names in `keep`, when it is given."""
    m = draws.shape[1]
    columns = {name: draws[:, :, j].reshape(-1) for j, name in enumerate(names)
               if keep is None or name in keep}
    for name, col in others.items():
        if name not in columns and (keep is None or name in keep):
            columns[name] = np.repeat(col, m)
    return columns


def _record_cols(evidence: dict) -> dict[str, np.ndarray]:
    """One record's evidence as columns; a string keeps an object column."""
    return {k: np.array([v], dtype=object) if isinstance(v, str) else np.array([v])
            for k, v in evidence.items()}


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


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T for a (..., k) and b (d, k), summed over k in index order, so a
    row's bits do not depend on the rows beside it; BLAS (and np.einsum on
    some layouts) rounds a row differently as the batch changes. Each output
    column accumulates its own (...,) operands, so numpy's inner loop runs
    over the rows, not over the d outputs."""
    out = np.zeros(a.shape[:-1] + b.shape[:1])
    for o in range(b.shape[0]):
        col = out[..., o]
        for j in range(b.shape[1]):
            col += a[..., j] * b[o, j]
    return out


def _solve(rows: list, rhs: list, dim: int, n_records: int, full_matrices: bool,
           impossible: type, mean0: np.ndarray | None = None):
    """Least-norm solution x (records, dim) of rows @ x = rhs, per record.

    With mean0, x is the solution nearest mean0. Singular values at or below
    _SVD_CUTOFF times the largest are dropped; a record whose equations miss
    by more than _CONSISTENCY_TOL times 1 + its own largest |rhs| raises
    `impossible`. Returns (x, vt, rank): the first rank rows of vt span the
    constrained directions, the rest (full_matrices only) the free ones.
    """
    start = np.zeros(dim) if mean0 is None else mean0
    if not rows:
        return np.repeat(start[None, :], n_records, 0), np.eye(dim), 0
    matrix = np.array(rows)
    target = np.array(rhs).T  # (records, k)
    u, s, vt = np.linalg.svd(matrix, full_matrices=full_matrices)
    rank = int((s > _SVD_CUTOFF * s.max(initial=1.0)).sum())
    pinv = vt[:rank].T / s[:rank] @ u[:, :rank].T
    x = start + _row_products(target - matrix @ start, pinv)
    residual = _row_products(x, matrix) - target
    scale = 1.0 + np.abs(target).max(axis=1)
    bad = np.abs(residual).max(axis=1) > _CONSISTENCY_TOL * scale
    if bad.any():
        raise impossible(
            f"evidence jointly impossible for record(s) {np.flatnonzero(bad)[:5].tolist()}")
    return x, vt, rank


# ---------------------------------------------------------------------------
# exact route


@dataclass
class GaussianPosterior:
    """Joint normal over exogenous variables; zero-variance entries are point masses."""

    names: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray


def _exact_route(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                 names: tuple[str, ...] | None = None):
    """Validate the evidence and requested names and choose the route.

    Returns the exact posterior of the d unobserved exogenous variables as
    (their names in model order, per-record means (records, d), a shared
    covariance (d, d)), or None when a path relevant to the evidence is not
    linear-Gaussian, so that the MH sampler must be used. Conditioning runs
    over one standard-normal coordinate per unobserved exogenous variable and
    one per noisy LinearGaussian ancestor of the evidence.
    """
    order, n_records, latent, names = _abduction_prelude(model, evidence_cols, names)
    prior_map = model.prior_map
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

    unknown = [n for n in names if n not in latent]
    if unknown:
        raise UnknownVariable(f"no exogenous variables {unknown} to draw")
    d = len(latent)
    scales = np.array([prior_map[n].std for n in latent])
    means = np.array([prior_map[n].mean for n in latent]) + scales * z_means[:, :d]
    return latent, means, np.outer(scales, scales) * z_cov[:d, :d]


def abduct_exact(model: CausalModel, evidence: dict) -> GaussianPosterior:
    """Posterior over the background variables by joint-normal conditioning."""
    exact = _exact_route(model, _record_cols(evidence), model.background)
    if exact is None:
        raise NotLinearGaussian("an evidence path is not linear-Gaussian")
    latent, means, cov = exact
    idx = [latent.index(n) for n in model.background]
    return GaussianPosterior(model.background, means[0, idx], cov[np.ix_(idx, idx)])


def exact_available(model: CausalModel, evidence) -> bool:
    """Whether the exact route serves this evidence: False where a path
    relevant to it is not linear-Gaussian, and False where the evidence is
    jointly impossible, on which abduction raises SingularConditioning."""
    try:
        return _exact_route(model, _record_cols(dict(evidence))) is not None
    except SingularConditioning:
        return False


# ---------------------------------------------------------------------------
# MCMC route


@dataclass
class PosteriorDraws:
    """Per-record posterior draws over exogenous variables.

    draws has shape (records, m, len(names)); acceptance holds the MH
    sampler's post-burn-in acceptance rate per (record, chain), or None for
    draws from the exact route (_abduct).
    """

    names: tuple[str, ...]
    draws: np.ndarray
    acceptance: np.ndarray | None

    def column(self, name: str, record: int = 0) -> np.ndarray:
        return self.draws[record, :, self.names.index(name)]


class _Target:
    """Vectorised log-density of (state, evidence) across records.

    Finite-domain quantities are int codes into a value list (`values_of`):
    categorical and Bernoulli state, evidence feeding a lookup table, and the
    tables themselves, compiled to dense arrays indexed by parent codes. The
    model's maps, linear predictors and prior pmfs are resolved once here, so
    a step does array arithmetic only. The state holds `copies` stacked
    copies of the records, one per MH chain, and the evidence is tiled to match.
    A state may carry leading axes before its rows, such as an MH block's
    steps; the per-row arrays (evidence, Poisson constants, check targets and
    the particular solution) broadcast against it.
    """

    def __init__(self, model: CausalModel, evidence_cols: dict[str, np.ndarray],
                 n_records: int, order: tuple[str, ...], copies: int):
        self.model = model
        self.n = n_records * copies
        self.evidence = {k: np.tile(np.asarray(v), copies) for k, v in evidence_cols.items()}
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

        # linear elimination system over the continuous block
        self._build_elimination(prior_map, eq_map, n_records, copies)
        self._compile()

    def _build_elimination(self, prior_map, eq_map, n_records: int, copies: int):
        """Solve zero-noise linear evidence for the continuous block exactly.

        The block `cont` is the cont_prior values, then the aux_cont values.
        Evidence that resolves through discrete state only, or not at all
        through the block, becomes an indicator instead. The solution nearest
        (prior means, zeros) is the particular one. The solve runs over the
        first copy of the records, so an impossible record is named by its
        own position, and its solution is tiled over the copies.
        """
        self.cont = self.cont_prior + self.aux_cont
        d = len(self.cont)
        coords = {name: (np.zeros(self.n), np.eye(d)[j]) for j, name in enumerate(self.cont)}
        affine = _Affine(eq_map, self.n, d, coords, self.evidence, {})
        rows, rhs = [], []
        for name in list(self.eliminate_nodes):
            # the node's own equation, not its plugged observed value
            rep = affine.equation(eq_map[name])
            if rep is None:
                anc = _ancestor_closure(self.model, [name]) - {name}
                if anc & set(self.cont):
                    raise NonFiniteDensity(
                        f"{name}: zero-noise evidence child mixes continuous latents "
                        "and non-linear structure")
            if rep is None or not rep[1].any():
                self.eliminate_nodes.remove(name)
                self.indicator_nodes.append(name)
                self.determined.append(name)
                continue
            rows.append(rep[1])
            rhs.append((np.asarray(self.evidence[name], dtype=np.float64) - rep[0])[:n_records])
        determined = set(self.determined)
        self.determined = [n for n in self.order if n in determined]

        self.prior_mean = np.array([prior_map[n].mean for n in self.cont_prior])
        self.prior_std = np.array([max(prior_map[n].std, 0.0) for n in self.cont_prior])
        mean0 = np.concatenate([self.prior_mean, np.zeros(len(self.aux_cont))])
        solution, vt, rank = _solve(rows, rhs, d, n_records, True, ZeroPosteriorMass, mean0)
        self.part_solution = np.tile(solution, (copies, 1))
        self.null_basis = vt[rank:].T  # (d, f)
        self.free_dim = self.null_basis.shape[1]

    def _compile(self):
        """Int codes, dense tables, linear predictors and pmfs, built once."""
        eq_map = self.eq_map
        var_map = self.model.variable_map
        self.disc_names = self.disc_prior + self.aux_disc
        # a categorical prior needs a domain, so a discrete state variable
        # without one is a latent BernoulliLogit
        self.values_of = {n: (0, 1) if var_map[n].domain is None else var_map[n].domain
                          for n in self.disc_names}
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

        # nodes whose conditional density enters the target, in summation order
        self.density_nodes = self.aux_cont + self.aux_disc + self.lik_nodes
        # parents of every node whose density or value needs a linear predictor
        eta_nodes = self.density_nodes + [n for n in self.determined if n not in self.tables]
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

        # evidence checks: a table's code must be the observed value's code
        # (resolved codes are first-equal positions; -1 for a value outside
        # the table); a zero-noise linear value must lie within 1e-9 of the
        # observation
        self.table_checks = []
        self.linear_checks = []
        for name in self.indicator_nodes:
            want = self.evidence[name]
            if name in self.tables:
                index = _index_of(self.values_of[name])
                self.table_checks.append(
                    (name, np.array([index.get(w, -1) for w in want.tolist()], dtype=np.intp)))
            else:
                self.linear_checks.append((name, want.astype(np.float64)))

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
        """Reconstruct the continuous block's values (R, d) from free coordinates t (R, f)."""
        return self.part_solution + _row_products(t, self.null_basis)

    def initial_t(self, values: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Free coordinates of the start: the particular solution, with each
        variable named in `values` at its (rows,) values, each aux_cont node
        at its conditional mean given the values before it and the first
        value of every discrete variable, projected onto the evidence. Without
        values or aux_cont nodes these are zeros."""
        t = np.zeros((self.n, self.free_dim))
        if not (values or self.aux_cont):
            return t
        start = self.cont_values(t)
        for name, col in (values or {}).items():
            start[:, self.cont.index(name)] = col
        num, _ = self.resolve(start, np.zeros((self.n, len(self.disc_names)), dtype=np.intp))
        for j, name in enumerate(self.aux_cont, len(self.cont_prior)):
            start[:, j] = num[name] = _linear_predictor(self.eq_map[name], num, self.n)
        return _row_products(start - self.part_solution, self.null_basis.T)

    def resolve(self, cont: np.ndarray, codes: np.ndarray):
        """(float values, int codes) of every variable the density reads.

        codes holds one column per disc_names entry, after every leading axis
        of the state; cont broadcasts against it.
        """
        shape = codes.shape[:-1]
        num = dict(self.base_num)
        cod = dict(self.base_codes)
        for j, name in enumerate(self.cont):
            num[name] = cont[..., j]
        for k, name in enumerate(self.disc_names):
            cod[name] = codes[..., k]
            if name in self.numeric:
                num[name] = self.numeric[name][codes[..., k]]
        for name in self.determined:
            dense = self.tables.get(name)
            if dense is None:
                num[name] = _linear_predictor(self.eq_map[name], num, shape)
                continue
            parents = self.eq_map[name].parents
            if parents:
                cod[name] = dense[tuple(cod[p] for p in parents)]
            else:
                cod[name] = np.full(shape, dense[()], dtype=np.intp)
            if name in self.numeric:
                num[name] = self.numeric[name][cod[name]]
        return num, cod

    def log_density(self, t, codes) -> np.ndarray:
        """Log-density per state row, shaped codes.shape[:-1]; call under
        np.errstate(divide/invalid="ignore")."""
        cont = self.cont_values(t)
        num, cod = self.resolve(cont, codes)
        logp = np.zeros(codes.shape[:-1])
        for j, name in enumerate(self.cont_prior):
            std = self.prior_std[j]
            if std == 0.0:
                logp = np.where(np.abs(cont[..., j] - self.prior_mean[j]) <= 1e-12, logp, -np.inf)
            else:
                logp = logp - 0.5 * ((cont[..., j] - self.prior_mean[j]) / std) ** 2 - math.log(std)
        for k, name in enumerate(self.disc_prior):
            logp = logp + self.log_pmf[name][codes[..., k]]
        for name in self.density_nodes:
            eta = _linear_predictor(self.eq_map[name], num, logp.shape)
            y = num[name]
            fam = self.eq_map[name].family
            if isinstance(fam, LinearGaussian):
                logp = logp - 0.5 * ((y - eta) / fam.noise_std) ** 2 - math.log(fam.noise_std)
            elif isinstance(fam, BernoulliLogit):
                logp = logp + y * log_expit(eta) + (1.0 - y) * log_expit(-eta)
            else:  # PoissonLogLink
                logp = logp + y * eta - np.exp(eta) - self.poisson_const[name]
        for name, want in self.table_checks:
            logp = np.where(cod[name] == want, logp, -np.inf)
        for name, want in self.linear_checks:
            logp = np.where(np.abs(num[name] - want) <= 1e-9, logp, -np.inf)
        return np.where(np.isnan(logp), -np.inf, logp)


def _index_of(values: tuple) -> dict:
    """value -> code, the first position of an equal value."""
    index: dict = {}
    for code, v in enumerate(values):
        index.setdefault(v, code)
    return index


def _enumerate_posterior(model: CausalModel, evidence: dict, names: tuple[str, ...]):
    """Every joint state of the categorical latents `names`, in np.meshgrid
    ("ij") order over their prior values, as value columns, and each state's
    unnormalised posterior weight given one record's evidence.

    A state's weight is exp of _Target.log_density at its codes, the density
    the sampler moves on; a name that the evidence does not reach is not in
    _Target's state, so its prior probability multiplies in. The names must
    hold every latent the evidence reaches, and those must fix what the
    evidence reads. Raises ZeroPosteriorMass when no state has weight.
    """
    evidence_cols = _record_cols(evidence)
    order, _, _, names = _abduction_prelude(model, evidence_cols, names)
    priors = [model.prior_map[n] for n in names]
    total = math.prod(len(prior.values) for prior in priors)
    target = _Target(model, evidence_cols, 1, order, 1)
    columns, unreached = {}, np.ones(total)
    codes = np.zeros((total, len(target.disc_names)), dtype=np.intp)
    grids = np.meshgrid(*[np.arange(len(prior.values)) for prior in priors], indexing="ij")
    for name, prior, grid in zip(names, priors, grids):
        idx = grid.reshape(-1)
        columns[name] = _decode(prior.values, idx)
        if name in target.disc_names:
            index = _index_of(target.values_of[name])
            codes[:, target.disc_names.index(name)] = np.array(
                [index[v] for v in prior.values], dtype=np.intp)[idx]
        else:
            unreached = unreached * np.array(prior.probs, dtype=np.float64)[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.exp(target.log_density(target.initial_t(), codes)) * unreached
    if not np.any(weight > 0.0):
        raise ZeroPosteriorMass("evidence has no support under the prior")
    return columns, weight


def _numeric(model: CausalModel, name: str) -> bool:
    """Whether every value the variable can take is a number."""
    domain = model.variable(name).domain
    return domain is None or all(isinstance(v, _NUMBER) for v in domain)


def abduct_records(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                   config: McmcConfig, names: tuple[str, ...] | None = None,
                   ids=None, _start: np.ndarray | None = None) -> PosteriorDraws:
    """Vectorised MH over records and chains; the workhorse behind abduct_mcmc.

    evidence_cols maps variable name to a column of per-record values, ids
    are the records' ids (see posterior_draw_matrix). All chains step
    together over chains * records state rows: row chain * records + i is
    chain `chain` of record i. Steps are keyed by (seed, id, chain, step,
    slot), prior draws outside the chain by (seed, id, chain, draw, name), so
    a chain's draws do not depend on the chains beside it. A block of steps'
    keys is folded onto every row's (seed, id, chain) state at once,
    _BLOCK_VALUES values at a time. Without a free continuous coordinate
    (target.free_dim == 0), the block's (steps, rows, k) proposals are scored
    in one log_density call of the chain's own _Target and each step runs
    only the accept test; with one, each step scores its own
    proposals. Either way the block's kept draws and acceptance counts are
    written once, after its steps. Draws are float64 when every requested
    domain is numeric, else object; names default to the exogenous variables
    not in the evidence (backgrounds first). Inside a _reuse_passes scope a
    repeated call returns the kept result.

    _start, laid out like one kept draw per (record, chain), (records, chains,
    len(names)), starts each chain there instead of where the sampler would;
    every name must then be a normal prior that the sampler moves, and the
    rest of the state starts as usual (initial_t). A started call is never
    kept or served by the _reuse_passes store. fit_level2_latent uses it to
    continue its E-step chains across EM iterations.
    """
    order, n_records, _, names = _abduction_prelude(model, evidence_cols, names)
    ids = _record_ids(ids, n_records)
    store = _REUSE.get() if _start is None else None
    if store is not None:
        key = _digest(b"abduct", _model_digest(model), repr(config), repr(tuple(names)), ids,
                      *[part for name, col in evidence_cols.items()
                        for part in (name, np.asarray(col))])
        if key in store:
            return store[key]
    chains = config.chains
    target = _Target(model, evidence_cols, n_records, order, chains)

    def per_record(col: np.ndarray) -> np.ndarray:
        """A (rows,) state column as (records, chains), a (steps, rows) one
        as (records, chains, steps)."""
        return col.reshape(col.shape[:-1] + (chains, n_records)).T

    chain_ids = np.arange(chains, dtype=np.uint64)
    dtype = np.float64 if all(_numeric(model, n) for n in names) else object
    out = np.zeros((n_records, chains * config.kept, len(names)), dtype=dtype)
    kept_out = out.reshape(n_records, chains, config.kept, len(names))  # a view of out

    # output columns: continuous state, decoded discrete state, and independent
    # exogenous variables (posterior equals prior), drawn directly
    cont_cols = [(j, target.cont_prior.index(n)) for j, n in enumerate(names)
                 if n in target.cont_prior]
    disc_cols = [(j, target.disc_names.index(n), np.array(list(target.values_of[n]), dtype=dtype))
                 for j, n in enumerate(names) if n in target.disc_names]
    covered = set(target.cont_prior) | set(target.disc_names) | set(evidence_cols)
    independent = [(j, n) for j, n in enumerate(names) if n not in covered]
    unknown = [n for _, n in independent if n not in target.prior_map]
    if unknown:
        raise UnknownVariable(f"{unknown} are neither exogenous nor sampler state")

    n_cont = target.free_dim
    n_disc = len(target.disc_names)
    sizes = np.array([len(target.values_of[n]) for n in target.disc_names], dtype=np.intp)
    # per-step slots: continuous moves, discrete re-proposals, the accept test
    slots = np.arange(n_cont + n_disc + 1, dtype=np.uint64)
    block = max(1, _BLOCK_VALUES // max(1, target.n * len(slots)))
    total_steps = config.burn_in + config.kept * config.thin

    # impossible states score -inf (log 0, inf - inf) and are rejected, so a
    # finite log density is never replaced by -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        t = target.initial_t(None if _start is None else
                             {name: _start[:, :, j].T.reshape(-1) for j, name in enumerate(names)})
        codes = _init_disc(target)
        logp = target.log_density(t, codes)
        if not np.all(np.isfinite(logp)):
            codes, logp = _feasible_init(target, t, codes, logp)

        head = rng.key_bits(config.seed, rng.TAG_MH, np.tile(ids, chains),
                            np.repeat(chain_ids, n_records))[None, :, None]
        accepted = np.zeros(target.n)
        kept_i = 0
        for start in range(0, total_steps, block):
            steps = np.arange(start, min(start + block, total_steps), dtype=np.uint64)
            u = rng.bits_to_uniforms(rng.fold_in(head, steps[:, None, None], slots))
            moves = config.proposal_std * ndtri(u[:, :, :n_cont])
            proposals = np.minimum((u[:, :, n_cont:-1] * sizes).astype(np.intp), sizes - 1)
            log_u = np.log(u[:, :, -1])
            if not n_cont:
                block_logp = target.log_density(t, proposals)
            takes = np.empty((len(steps), target.n), dtype=bool)
            kept, kept_t = [], []  # the block's kept steps, and t after each
            for i, step in enumerate(range(start, start + len(steps))):
                if n_cont:
                    t_new = t + moves[i]
                    logp_new = target.log_density(t_new, proposals[i])
                else:
                    logp_new = block_logp[i]
                take = np.less(log_u[i], logp_new - logp, out=takes[i])
                take |= np.isfinite(logp_new) & ~np.isfinite(logp)
                if n_cont:
                    t = np.where(take[:, None], t_new, t)
                logp = np.where(take, logp_new, logp)
                if step >= config.burn_in and (step - config.burn_in + 1) % config.thin == 0:
                    if kept_i == 0 and not kept and not np.all(np.isfinite(logp)):
                        stuck = np.flatnonzero(~per_record(np.isfinite(logp)).all(axis=1))
                        raise ZeroPosteriorMass(
                            f"no feasible background state for record(s) {stuck[:5].tolist()}")
                    kept.append(i)
                    kept_t.append(t)
            accepted += takes[max(0, config.burn_in - start):].sum(axis=0)
            if n_disc:
                # a step's codes are its row's last accepted proposal in the
                # block, else the codes the block started from
                last = np.maximum.accumulate(
                    np.where(takes, np.arange(len(steps))[:, None], -1), axis=0)
                step_codes = np.where((last >= 0)[..., None],
                                      proposals[last, np.arange(target.n)], codes)
                codes = step_codes[-1]
            if not kept:
                continue
            window = slice(kept_i, kept_i + len(kept))
            cont = target.cont_values(np.array(kept_t))
            for j, c in cont_cols:
                kept_out[:, :, window, j] = per_record(cont[..., c])
            for j, k, decoded in disc_cols:
                kept_out[:, :, window, j] = per_record(decoded[step_codes[kept, :, k]])
            kept_i += len(kept)
    acceptance = per_record(accepted / max(1, config.kept * config.thin)).copy()
    if independent:
        _draw_independent(kept_out, target.prior_map, independent, config, ids, chain_ids)
    posterior = PosteriorDraws(tuple(names), out, acceptance)
    if store is not None:
        out.flags.writeable = acceptance.flags.writeable = False
        store[key] = posterior
    return posterior


@contextlib.contextmanager
def _reuse_passes():
    """A scope with one store that serves two users. abduct_records keeps each
    result and returns it, instead of sampling again, to a call with the same
    key; metrics._branch_scores keeps each branch pass's computed columns and
    only scores a repeated pass. Keys are _digest of all that a result depends
    on, and kept arrays are read-only. The store is emptied when the scope
    ends; the CLI opens one per audit spec, whose recipes read the same
    posterior and mostly the same branch passes."""
    token = _REUSE.set({})
    try:
        yield
    finally:
        _REUSE.reset(token)


def _model_digest(model: CausalModel) -> bytes:
    """SHA-256 of the model's JSON, a key part for _digest."""
    return hashlib.sha256(json.dumps(model_to_json(model), sort_keys=True).encode()).digest()


def _digest(*parts) -> bytes:
    """SHA-256 over length-prefixed parts: bytes as they are, a str as UTF-8,
    an array as its dtype, shape and values (object values by repr of their
    list), anything else by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            data = repr(part.tolist()).encode() if part.dtype == object else part.tobytes()
            part = f"{part.dtype.str}{part.shape}".encode() + data
        elif isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.digest()


def _init_disc(target: _Target) -> np.ndarray:
    """Codes of each discrete state variable's prior mode (first value without a prior)."""
    codes = np.zeros((target.n, len(target.disc_names)), dtype=np.intp)
    for k, name in enumerate(target.disc_names):
        prior = target.prior_map.get(name)
        if prior is not None and hasattr(prior, "probs"):
            best = prior.values[int(np.argmax(prior.probs))]
            codes[:, k] = _index_of(target.values_of[name])[best]
    return codes


def _feasible_init(target, t, codes, logp):
    """Scan small discrete supports for a per-record feasible assignment."""
    sizes = [len(target.values_of[n]) for n in target.disc_names]
    if not sizes or math.prod(sizes) > 4096:
        return codes, logp
    best = codes.copy()
    best_logp = logp.copy()
    for combo in product(*(range(s) for s in sizes)):
        trial = np.broadcast_to(np.array(combo, dtype=np.intp), codes.shape)
        lp = target.log_density(t, trial)
        upgrade = np.isfinite(lp) & ~np.isfinite(best_logp)
        if upgrade.any():
            best = np.where(upgrade[:, None], trial, best)
            best_logp = np.where(upgrade, lp, best_logp)
    return best, best_logp


def _draw_independent(out, prior_map, independent, config, ids, chain_ids):
    """Prior draws for every kept slot of out, viewed as (records, chains, kept,
    names), keyed (seed, record id, chain, kept, name key)."""
    head = rng.key_bits(config.seed, rng.TAG_INDEP, ids[:, None], chain_ids)[:, :, None]
    kept = np.arange(config.kept, dtype=np.uint64)
    for j, name in independent:
        u = rng.bits_to_uniforms(rng.fold_in(head, kept, rng.name_key(name)))
        out[..., j] = _prior_column(prior_map[name], u)


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
    values = _abduct_act_predict(model, evidence, intervention, n_draws, config,
                                 rng.TAG_PREDICT)
    domains = {v.name: v.domain for v in model.variables if v.domain is not None}
    return Dataset(tuple(values), values, domains)


def _abduct_act_predict(model: CausalModel, evidence: dict, intervention: dict,
                        n_draws: int, config: McmcConfig, tag: int,
                        reads=None) -> dict[str, np.ndarray]:
    """n_draws forward passes of the intervened model from exogenous state
    abducted from the evidence, in topological order.

    Noise is keyed by (child_seed(config.seed, tag), tag). With `reads`, only
    their ancestors in the intervened model are evaluated (_ancestors_only).
    """
    modified = intervene(model, intervention)  # validates the intervention up front
    exo_draws = exogenous_draws(model, evidence, n_draws, config)
    given = {name: col for name, col in exo_draws.items() if name not in intervention}
    if reads is not None:
        modified, _ = _ancestors_only(modified, reads)
    return forward_eval(modified, given, n_draws, rng.child_seed(config.seed, tag), salt=tag)


def _record_ids(ids, n_records: int) -> np.ndarray:
    """Record ids as uint64 keys: arange(n_records) by default."""
    ids = np.arange(n_records) if ids is None else np.asarray(ids)
    if ids.shape != (n_records,) or ids.dtype.kind not in "iu":
        raise DimensionMismatch(f"ids must be {n_records} integers, got {ids.dtype} {ids.shape}")
    return ids.astype(np.uint64)


def _abduct(model: CausalModel, evidence_cols: dict[str, np.ndarray], config: McmcConfig,
            names: tuple[str, ...], m: int, ids=None) -> PosteriorDraws:
    """Posterior draws of `names` per record, from the one site that picks the route.

    Where _exact_route gives the joint-normal posterior, m draws of every
    unobserved exogenous variable k (model order), keyed by (seed, TAG_EXACT,
    1, k, id, draw), of which the names' columns are returned; otherwise
    abduct_records draws.
    """
    exact = _exact_route(model, evidence_cols, names)
    if exact is None:
        return abduct_records(model, evidence_cols, config, names=names, ids=ids)
    latent, means, cov = exact
    ids = _record_ids(ids, len(means))
    z = rng.normals(config.seed, rng.TAG_EXACT, 1, np.arange(len(latent), dtype=np.uint64),
                    ids[:, None, None], np.arange(m, dtype=np.uint64)[None, :, None])
    w, v = np.linalg.eigh(cov)  # z through the eigh square root of cov
    draws = means[:, None, :] + _row_products(z, v * np.sqrt(np.clip(w, 0.0, None)))
    return PosteriorDraws(tuple(names), draws[:, :, [latent.index(n) for n in names]], None)


def exogenous_draws(model: CausalModel, evidence: dict, n_draws: int,
                    config: McmcConfig) -> dict[str, np.ndarray]:
    """Draws of every exogenous variable given evidence, plus pinned observed
    roots: the one-record view of _abduct, the record's id 0."""
    exo = _exogenous_names(model)
    latent = tuple(n for n in exo if n not in evidence)
    draws = _abduct(model, _record_cols(evidence), config, latent, n_draws).draws[0]
    draws = draws[np.arange(n_draws) % len(draws)]
    out = {name: draws[:, j] for j, name in enumerate(latent)}
    out.update((n, _constant_column(evidence[n], n_draws)) for n in exo if n in evidence)
    return out


def posterior_draw_matrix(model: CausalModel, evidence_cols: dict[str, np.ndarray],
                          config: McmcConfig, names: tuple[str, ...], ids=None) -> np.ndarray:
    """(records, chains * kept, len(names)) posterior draws for every record.

    The route is chosen once, by _abduct: the exact joint-normal posterior
    when every path relevant to the evidence is linear-Gaussian, otherwise
    the record-vectorised MH sampler (abduct_records). Both key a record's
    draws by its id, its row in the caller's Dataset (ids, default
    arange(records)), and sum every per-row product in a fixed order
    (_row_products), so a record draws bit-identically alone, at any position
    and among any other records, and a name's draws do not depend on the
    other requested names. Draws are float64 unless a requested variable's
    domain holds a non-number.
    """
    return _abduct(model, evidence_cols, config, names, config.draws, ids).draws
