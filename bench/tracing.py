"""In-memory spans around the public functions of every cfair module.

`Tracer.install` replaces each public function of each cfair module by a
wrapper at every module attribute that holds it, so that `cfair.forward_eval`,
`cfair.scm.forward_eval` and `cfair.metrics.forward_eval` all record through
one wrapper and no call bypasses it. `Dataset.to_csv` and `Dataset.from_csv`
are wrapped on the class. A span holds its name, start, end and parent; a
layer's self time is its span minus its direct children. The rng functions
run tens of thousands of times per round, so they keep counts and totals
instead of one span per call.

Spans stay in memory until `write_jsonl`; `per_layer` turns them into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time

import numpy as np

_MODULES = ("rng", "scm", "dataset", "counterfactual", "estimators", "learning",
            "metrics", "scenarios", "cli")
_COUNTED = "rng"
# metric names that differ from the function they measure
_ALIASES = {"cli.cmd_experiment": "cli.experiment", "cli.cmd_scenario": "cli.scenario",
            "cli.cmd_fit": "cli.fit", "cli.cmd_audit": "cli.audit"}


def _arg(args, kwargs, fn, name):
    """The value bound to parameter `name` in a call of fn(*args, **kwargs)."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _array_key(col) -> bytes:
    col = np.asarray(col)
    if col.dtype == object:
        return repr(col.tolist()).encode()
    return str(col.dtype).encode() + col.tobytes()


class Tracer:
    """Wraps cfair's public functions and records spans while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen_posteriors: set[str] = set()
        self._model_json = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import cfair.scm
        self._model_json = cfair.scm.model_to_json  # unwrapped, for fingerprints
        modules = [sys.modules["cfair"]] + [sys.modules[f"cfair.{m}"] for m in _MODULES]
        wrappers = {}
        for short in _MODULES:
            mod = sys.modules[f"cfair.{short}"]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                label = _ALIASES.get(f"{short}.{name}", f"{short}.{name}")
                wrappers[id(fn)] = (self._counted(label, fn) if short == _COUNTED
                                    else self._spanned(label, fn))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._rebind(mod, name, wrappers[id(value)])
        dataset = sys.modules["cfair.dataset"].Dataset
        self._rebind(dataset, "to_csv",
                     self._spanned("dataset.to_csv", dataset.__dict__["to_csv"]))
        self._rebind(dataset, "from_csv", classmethod(
            self._spanned("dataset.from_csv", dataset.__dict__["from_csv"].__func__)))

    def new_round(self) -> None:
        """Start a round: repeated posteriors are counted within one round."""
        self._seen_posteriors.clear()

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _rebind(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, label, fn):
        totals = self.counters.setdefault(label, {"calls": 0, "s": 0.0, "values": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            totals["s"] += time.perf_counter() - start
            totals["calls"] += 1
            totals["values"] += int(np.size(result))
            return result
        return wrapper

    def _spanned(self, label, fn):
        annotate = getattr(self, "_note_" + label.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": label,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(span, fn, args, kwargs, result)
            return result
        return wrapper

    # -- per-call annotations (counts taken where the work happens) ----------

    def _note_scm_forward_eval(self, span, fn, args, kwargs, result):
        span["rows"] = int(_arg(args, kwargs, fn, "n"))

    def _note_counterfactual_abduct_records(self, span, fn, args, kwargs, result):
        config = _arg(args, kwargs, fn, "config")
        records, chains = result.acceptance.shape
        post_burn = config.kept * config.thin
        span["records"] = records
        span["mh_steps"] = records * chains * (config.burn_in + post_burn)
        span["proposals"] = records * chains * post_burn
        span["accepted"] = float(result.acceptance.sum()) * post_burn

    def _note_counterfactual_posterior_draw_matrix(self, span, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        h = hashlib.sha256(json.dumps(self._model_json(bound["model"]),
                                      sort_keys=True).encode())
        for name, col in sorted(bound["evidence_cols"].items()):
            h.update(name.encode() + b"\0" + _array_key(col))
        h.update(repr((bound["config"], tuple(bound["names"]))).encode())
        key = h.hexdigest()
        span["repeat"] = key in self._seen_posteriors
        self._seen_posteriors.add(key)

    def _note_estimators_design_matrix(self, span, fn, args, kwargs, result):
        span["rows"] = int(_arg(args, kwargs, fn, "data").n)

    def _note_estimators_ols_fit(self, span, fn, args, kwargs, result):
        span["rows"] = len(_arg(args, kwargs, fn, "y"))

    _note_estimators_poisson_fit = _note_estimators_ols_fit

    def _note_estimators_fit_level2_latent(self, span, fn, args, kwargs, result):
        span["em_iterations"] = len(result.diagnostics["latent_weight_trace"])

    def _note_metrics_cf_fairness_test(self, span, fn, args, kwargs, result):
        span["records_audited"] = int(result.params["n_audited"])

    def _note_dataset_to_csv(self, span, fn, args, kwargs, result):
        span["rows"] = int(args[0].n)

    def _note_dataset_from_csv(self, span, fn, args, kwargs, result):
        span["rows"] = int(result.n)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for label, totals in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": label, **totals}) + "\n")

    def mark(self):
        """A point between phases: the span count and the rng totals so far."""
        return len(self.spans), {k: dict(v) for k, v in self.counters.items()}

    def per_layer(self, setup_end, rounds: int) -> dict[str, float]:
        """Every per-layer metric: the set-up's total plus the mean of a round.

        `setup_end` is the mark taken when the set-up ended and the first round
        began. The acceptance ratio is pooled over all proposals instead.
        """
        setup = self._totals((0, {}), setup_end)
        body = self._totals(setup_end, self.mark())
        m = {k: setup[k] + body[k] / rounds for k in body}
        proposals = setup["proposals"] + body["proposals"]
        m["counterfactual.abduct_records.acceptance"] = (
            (setup["accepted"] + body["accepted"]) / proposals if proposals else 0.0)
        del m["proposals"], m["accepted"]
        return m

    def _totals(self, lo, hi) -> dict[str, float]:
        """Sums of every per-layer quantity over the spans between two marks."""
        window = self.spans[lo[0]:hi[0]]
        children: dict[int, float] = {}
        routed_mcmc: set[int] = set()
        for span in window:
            parent = span["parent"]
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + span["end"] - span["start"]
                if (span["name"] == "counterfactual.abduct_records"
                        and self.spans[parent]["name"] == "counterfactual.posterior_draw_matrix"):
                    routed_mcmc.add(parent)

        def spans(name):
            return [s for s in window if s["name"] == name]

        def outermost(name):
            # a span nested in one of the same name is already in that one's time
            out = []
            for s in spans(name):
                p = s["parent"]
                while p is not None and self.spans[p]["name"] != name:
                    p = self.spans[p]["parent"]
                if p is None:
                    out.append(s)
            return out

        def total_s(name):
            return sum(s["end"] - s["start"] for s in outermost(name))

        def total(name, key):
            return sum(s.get(key, 0) for s in spans(name))

        m: dict[str, float] = {}
        zero = {"calls": 0, "s": 0.0, "values": 0}
        for key in ("calls", "s", "values"):
            m[f"rng.key_bits.{key}"] = (hi[1].get("rng.key_bits", zero)[key]
                                        - lo[1].get("rng.key_bits", zero)[key])
        for name, keys in (("scm.forward_eval", ("rows",)),
                           ("scm.validate_model", ()),
                           ("counterfactual.abduct_records", ("records", "mh_steps")),
                           ("counterfactual.posterior_draw_matrix", ()),
                           ("estimators.design_matrix", ("rows",)),
                           ("estimators.ols_fit", ("rows",)),
                           ("estimators.poisson_fit", ("rows",)),
                           ("metrics.cf_fairness_test", ("records_audited",)),
                           ("dataset.to_csv", ("rows",)),
                           ("dataset.from_csv", ("rows",))):
            m[f"{name}.calls"] = len(spans(name))
            m[f"{name}.s"] = total_s(name)
            for key in keys:
                m[f"{name}.{key}"] = total(name, key)
        del m["dataset.to_csv.calls"], m["dataset.from_csv.calls"]
        m["proposals"] = total("counterfactual.abduct_records", "proposals")
        m["accepted"] = total("counterfactual.abduct_records", "accepted")
        pdm = spans("counterfactual.posterior_draw_matrix")
        m["counterfactual.posterior_draw_matrix.route_mcmc"] = sum(
            s["id"] in routed_mcmc for s in pdm)
        m["counterfactual.posterior_draw_matrix.route_exact"] = sum(
            s["id"] not in routed_mcmc for s in pdm)
        m["counterfactual.posterior_draw_matrix.repeat_calls"] = sum(
            bool(s.get("repeat")) for s in pdm)
        m["estimators.fit_level2_latent.em_iterations"] = total(
            "estimators.fit_level2_latent", "em_iterations")
        m["metrics.cf_fairness_test.self_s"] = sum(
            s["end"] - s["start"] - children.get(s["id"], 0.0)
            for s in spans("metrics.cf_fairness_test"))
        for name in ("counterfactual.counterfactual_sample", "estimators.fit_level2_latent",
                     "learning.fair_learning", "learning.fair_predict",
                     "learning.baseline_fit", "learning.additive_fair_fit",
                     "metrics.prob_sufficiency", "scenarios.generate",
                     "cli.experiment", "cli.scenario", "cli.fit", "cli.audit"):
            m[f"{name}.s"] = total_s(name)
        return m
