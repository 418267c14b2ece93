"""Batch command line: validate, simulate, scenario, fit, audit, experiment.

Every subcommand is deterministic given its flags. `--seed` overrides the
CFAIR_SEED environment variable (default 0).

Exit codes: 0 success; 1 error, with a `config:` or `io:` prefix for
configuration and filesystem problems and the error class name for anything
propagated from the library; 2 when `--strict` is set and an audit fails;
64 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import rng
from .counterfactual import McmcConfig, _reuse_passes
from .dataset import Dataset, _format_value
from .errors import CfairError
from .estimators import fit_level2_latent
from .learning import (InputManifest, additive_fair_fit, baseline_fit,
                       fair_learning, fair_predict, level1_inputs,
                       load_predictor, save_predictor)
from .metrics import (ace, cf_fairness_test, ftu_check, group_gaps,
                      path_cf_test, prob_sufficiency, strict_cf_check)
from .scenarios import SCENARIO_KINDS, ScenarioParams, generate
from .scm import (CausalModel, ancestral_sample, load_model, save_model,
                  validate_model)

RECIPES = ("full", "unaware", "fair_k", "fair_add", "fair_learning")
# the fields each audit criterion reads besides its name; a spec with any
# other key is a config error
_CRITERION_FIELDS = {
    "cf": ("a", "a_prime", "draws", "threshold", "max_records"),
    "strict": ("a", "a_prime", "draws", "tol", "max_records"),
    "path": ("a", "a_prime", "paths", "draws", "threshold", "max_records"),
    "dp": ("a", "a_prime", "threshold"),
    "ftu": (),
    "ace": ("a", "a_prime", "given", "draws"),
    "ps": ("a_prime", "record", "y", "threshold", "tol"),
}
CRITERIA = tuple(_CRITERION_FIELDS)

_TRAIN_FRAC = 0.8
_MCMC_DEFAULT = McmcConfig()
# the mcmc config keys that fit and audit take as flags (--burn-in for burn_in)
_MCMC_FLAGS = ("chains", "burn_in", "kept", "thin")
# the top-level experiment keys besides its source, 'scenario' or 'model' and 'data'
_EXPERIMENT_KEYS = ("outcome", "head", "mcmc", "recipes", "audits", "seed", "out", "strict")
_MANIFEST_KEYS = ("background_inputs", "observable_inputs", "include_protected", "protected")


class _Failure(Exception):
    """User-facing failure; the message is printed with its prefix, exit 1."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# -- flag parsing helpers ------------------------------------------------

def _typed(text: str):
    """Parse a flag value as int, then float, then bare string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _assignment(text: str) -> tuple[str, object]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, _typed(value)


def _config_number(value, kind: type, what: str):
    """kind(value) for int or float; a config error when value does not convert,
    is a bool, is a fractional number for an int or is not finite for a float."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        noun = "an integer" if kind is int else "a number"
        raise _Failure(f"config: {what} must be {noun}, got {value!r}")
    if kind is float and not math.isfinite(number):
        raise _Failure(f"config: {what} must be a finite number, got {value!r}")
    return number


def _config_object(blob, part: str, allowed=None) -> dict:
    """blob; a config error unless it is a JSON object and, given allowed, one
    whose keys are all among them."""
    if not isinstance(blob, dict):
        raise _Failure(f"config: {part} must be a JSON object, got {blob!r}")
    unknown = [] if allowed is None else sorted(set(blob) - set(allowed))
    if unknown:
        raise _Failure(f"config: unknown {part} keys {unknown}")
    return blob


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return int(flag_value)
    return _config_number(os.environ.get("CFAIR_SEED", "0"), int, "CFAIR_SEED")


def _fmt(x) -> str:
    return "none" if x is None else f"{x:.6g}"


# -- file plumbing -------------------------------------------------------

def _load_model_file(path: str) -> CausalModel:
    if not os.path.exists(path):
        raise _Failure(f"config: model file not found: {path}")
    try:
        return load_model(path)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _Failure(f"config: cannot parse model file {path}: {exc}") from exc


def _load_data_file(path: str, model: CausalModel) -> Dataset:
    """The data file without the model's background (latent truth) columns,
    left unparsed, so recipes and audits see observed data only."""
    if not os.path.exists(path):
        raise _Failure(f"config: data file not found: {path}")
    data = Dataset.from_csv(path, drop=model.background)
    if not data.columns:
        raise _Failure("config: the data holds only background columns")
    return data


def _json_default(value):
    """What json.dump cannot encode itself: numpy scalars, and sets as sorted lists."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(blob: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_density_csv(report, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("value", "branch"))
        for value, branch in report.density_rows():
            writer.writerow((_format_value(value), branch))


# -- shared model/data logic ---------------------------------------------

def _single_outcome(model: CausalModel, flag: str | None = None) -> str:
    if flag:
        if flag not in model.variable_map:
            raise _Failure(f"config: unknown outcome {flag!r}")
        return flag
    outs = model.outcome
    if len(outs) != 1:
        raise _Failure("config: --outcome is required when the model does not "
                       "declare exactly one outcome")
    return outs[0]


def _mcmc_from_blob(blob: dict | None, seed: int) -> McmcConfig:
    blob = _config_object({} if blob is None else blob, "mcmc", (*_MCMC_FLAGS, "proposal_std"))
    return McmcConfig(seed=seed, **{
        k: _config_number(v, float if k == "proposal_std" else int, f"mcmc {k}")
        for k, v in blob.items()})


def _manifest(blob) -> InputManifest:
    """The input manifest of a JSON object; config errors for a key missing or unknown."""
    missing = sorted(set(_MANIFEST_KEYS) - set(_config_object(
        blob, "manifest", (*_MANIFEST_KEYS, "whitelisted"))))
    if missing:
        raise _Failure(f"config: manifest needs keys {missing}")
    return InputManifest.from_json(blob)


def _default_manifest(model: CausalModel) -> InputManifest:
    """Backgrounds plus observable non-descendants of the protected set."""
    base = level1_inputs(model)
    return InputManifest(frozenset(model.background), base.observable_inputs,
                         False, model.protected)


def _fit_recipe(recipe: str, train: Dataset, model: CausalModel, outcome: str,
                head: str, config: McmcConfig, manifest: InputManifest | None = None):
    """Fit one named recipe; returns (predictor, model used for prediction)."""
    if recipe in ("full", "unaware"):
        predictor = baseline_fit(train, recipe, outcome, head=head,
                                 protected=model.protected)
        return predictor, model
    if recipe == "fair_add":
        return additive_fair_fit(train, model, outcome), model
    if recipe == "fair_learning":
        man = manifest if manifest is not None else _default_manifest(model)
        predictor = fair_learning(train, model, man, head=head, config=config,
                                  outcome=outcome)
        return predictor, model
    if recipe == "fair_k":
        fitted = fit_level2_latent(train, model, config=config)
        man = InputManifest(frozenset((fitted.latent,)), frozenset(), False,
                            model.protected)
        predictor = fair_learning(train, fitted.model, man, head=head,
                                  config=config, outcome=outcome)
        return predictor, fitted.model
    raise _Failure(f"config: unknown recipe {recipe!r}")


def _check_head(recipe: str, head) -> None:
    """Config errors for a head that is neither linear nor logistic, or one
    that the recipe does not fit."""
    if head not in ("linear", "logistic"):
        raise _Failure(f"config: head must be linear or logistic, got {head!r}")
    if recipe == "fair_add" and head != "linear":
        raise _Failure("config: recipe fair_add supports only the linear head")


def _split_indices(y: np.ndarray, frac: float, seed: int):
    """Seeded 80/20 split over an argsort of uniforms keyed by row; stratified
    when the outcome is binary 0/1."""
    n = len(y)
    order = np.argsort(rng.uniforms(seed, rng.TAG_SPLIT, np.arange(n, dtype=np.uint64)),
                       kind="stable")
    try:
        yf = y.astype(np.float64)
        stratified = n > 0 and bool(np.isin(yf, (0.0, 1.0)).all())
    except (TypeError, ValueError):
        stratified = False
    groups = yf if stratified else np.zeros(n)
    mask = np.zeros(n, dtype=bool)
    for cls in np.unique(groups):
        members = order[groups[order] == cls]
        mask[members[: int(round(frac * len(members)))]] = True
    train, test = np.flatnonzero(mask), np.flatnonzero(~mask)
    if len(train) == 0 or len(test) == 0:
        raise _Failure("config: the train/test split left an empty side")
    return train, test, stratified


def _test_metric(head: str, y: np.ndarray, preds: np.ndarray) -> tuple[str, float]:
    if head == "logistic":
        p = np.clip(preds, 1e-12, 1.0 - 1e-12)
        return "log_loss", float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    return "rmse", float(np.sqrt(np.mean((y - preds) ** 2)))


# -- audits ---------------------------------------------------------------

# the numeric fields of an audit spec, converted like other config numbers;
# a field left out or null takes the audit's default
_AUDIT_FIELDS = {"draws": int, "max_records": int, "record": int,
                 "threshold": float, "tol": float, "y": float}


def _audit_args(spec):
    """(criterion, a, a_prime, numeric fields) of an audit spec; config errors
    for a spec that is not an object, an unknown criterion or field, a missing
    assignment, target or path, or a malformed number."""
    if not isinstance(spec, dict):
        raise _Failure(f"config: bad audit spec {spec!r}")
    crit = spec.get("criterion")
    if crit not in CRITERIA:
        raise _Failure(f"config: unknown audit criterion {crit!r}; "
                       f"choose from {', '.join(CRITERIA)}")
    _config_object(spec, f"{crit} audit", ("criterion", *_CRITERION_FIELDS[crit]))
    a, ap, _ = (_config_object(spec.get(k) or {}, k) for k in ("a", "a_prime", "given"))
    if "a" in _CRITERION_FIELDS[crit] and (not a or not ap):
        raise _Failure(f"config: criterion {crit} needs --a and --a-prime")
    if crit == "ps" and not ap:
        raise _Failure("config: criterion ps needs --a-prime")
    if crit == "path" and not spec.get("paths"):
        raise _Failure("config: criterion path needs at least one --path")
    paths = spec.get("paths") or []
    if not isinstance(paths, list) or not all(isinstance(p, (list, tuple)) for p in paths):
        raise _Failure(f"config: paths must be a list of name lists, got {paths!r}")
    num = {k: _config_number(spec[k], kind, k) for k, kind in _AUDIT_FIELDS.items()
           if spec.get(k) is not None}
    for count in ("draws", "max_records"):
        if num.get(count, 1) < 1:
            raise _Failure(f"config: {count} must be at least 1, got {num[count]!r}")
    if crit == "ps" and "y" not in num:
        raise _Failure("config: criterion ps needs --y")
    return crit, a, ap, num


def _run_audit(spec: dict, predictor, model: CausalModel, data: Dataset,
               outcome: str, config: McmcConfig):
    """Run one audit spec; returns (summary dict, FairnessReport or None)."""
    crit, a, ap, num = _audit_args(spec)
    if crit == "cf":
        report = cf_fairness_test(model, predictor, data, a, ap, config=config, **num)
    elif crit == "strict":
        report = strict_cf_check(model, predictor, data, a, ap, config=config, **num)
    elif crit == "path":
        paths = [tuple(p) for p in spec["paths"]]
        report = path_cf_test(model, predictor, data, paths, a, ap, config=config, **num)
    elif crit == "dp":
        gaps = group_gaps(predictor, data, outcome, a, ap, model=model,
                          config=config)
        thr = num.get("threshold", 0.05)
        return {"criterion": "dp", "passed": bool(gaps["dp_gap"] <= thr),
                "aggregate": float(gaps["dp_gap"]), "threshold": thr,
                "detail": gaps}, None
    elif crit == "ftu":
        ok = ftu_check(predictor)
        return {"criterion": "ftu", "passed": bool(ok), "aggregate": None,
                "threshold": None, "detail": {}}, None
    elif crit == "ace":
        given = dict(spec.get("given") or {})
        result = ace(model, predictor, given, a, ap,
                     n_draws=num.get("draws", 20000),
                     config=config)
        return {"criterion": "ace", "passed": None,
                "aggregate": float(result["ace"]), "threshold": None,
                "detail": result}, None
    else:  # ps
        idx = num.get("record", 0)
        if not 0 <= idx < data.n:
            raise _Failure(f"config: record index {idx} out of range")
        record = data.record(idx)
        record.pop(outcome, None)
        y = num["y"]
        result = prob_sufficiency(model, predictor, record, y, ap, config=config,
                                  **{k: v for k, v in num.items() if k == "tol"})
        thr = num.get("threshold", 0.05)
        prob = float(result["probability"])
        return {"criterion": "ps", "passed": bool(prob <= thr),
                "aggregate": prob, "threshold": thr,
                "detail": {**result, "record": idx, "y": y}}, None

    summary = {"criterion": crit, "passed": report.passed,
               "aggregate": float(report.aggregate),
               "threshold": None if report.threshold is None else float(report.threshold),
               "detail": report.to_json()}
    return summary, report


def _verdict(summary: dict) -> str:
    if summary["passed"] is None:
        return "INFO"
    return "PASS" if summary["passed"] else "FAIL"


# -- subcommands ----------------------------------------------------------

def cmd_validate(args) -> int:
    model = _load_model_file(args.model)
    result = validate_model(model)
    for issue in result.issues:
        print(f"{issue.code}: {issue.message}")
    if result.ok:
        print("ok: " + " ".join(result.topological_order))
        return 0
    return 1


def cmd_simulate(args) -> int:
    model = _load_model_file(args.model)
    seed = _resolve_seed(args.seed)
    data = ancestral_sample(model, args.n, seed)
    data.to_csv(args.out)
    print(f"wrote {args.out}: {data.n} rows, {len(data.columns)} columns")
    return 0


def cmd_scenario(args) -> int:
    seed = _resolve_seed(args.seed)
    params = ScenarioParams(args.kind, dict(args.param), n=args.n, seed=seed)
    model, data = generate(params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    data.to_csv(out / "data.csv")
    print(f"wrote {out / 'model.json'} and {out / 'data.csv'} ({data.n} rows)")
    return 0


def cmd_fit(args) -> int:
    _check_head(args.recipe, args.head)
    model = _load_model_file(args.model)
    data = _load_data_file(args.data, model)
    seed = _resolve_seed(args.seed)
    outcome = _single_outcome(model, args.outcome)
    config = _mcmc_from_blob({k: getattr(args, k) for k in _MCMC_FLAGS}, seed)
    manifest = None
    if args.manifest:
        if args.recipe != "fair_learning":
            raise _Failure("config: only recipe fair_learning reads --manifest")
        if not os.path.exists(args.manifest):
            raise _Failure(f"config: manifest file not found: {args.manifest}")
        with open(args.manifest) as fh:
            try:
                blob = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _Failure(f"config: {args.manifest}: {exc}") from exc
        manifest = _manifest(blob)
    predictor, predict_model = _fit_recipe(args.recipe, data, model, outcome,
                                           args.head, config, manifest)
    save_predictor(predictor, args.out)
    if args.fitted_model_out:
        save_model(predict_model, args.fitted_model_out,
                   fit_meta={"recipe": args.recipe, "seed": seed})
    print(f"{args.recipe} ({args.head}): fit {len(predictor.labels)} weights "
          f"on {data.n} rows -> {args.out}")
    return 0


def cmd_audit(args) -> int:
    predictor_path = args.predictor
    if not os.path.exists(predictor_path):
        raise _Failure(f"config: predictor file not found: {predictor_path}")
    predictor = load_predictor(predictor_path)
    model = _load_model_file(args.model)
    data = _load_data_file(args.data, model)
    seed = _resolve_seed(args.seed)
    config = _mcmc_from_blob({k: getattr(args, k) for k in _MCMC_FLAGS}, seed)
    outcome = _single_outcome(model, args.outcome) if args.criterion == "dp" \
        else (args.outcome or "")
    flags = {"a": dict(args.a), "a_prime": dict(args.a_prime),
             "paths": [tuple(s.strip() for s in p.split(",")) for p in args.path],
             "given": dict(args.given), "record": args.record, "y": args.y,
             "draws": args.draws, "threshold": args.threshold,
             "max_records": args.max_records, "tol": args.tol}
    # only the flags given, so a flag the criterion does not read is an error
    spec = {"criterion": args.criterion,
            **{k: v for k, v in flags.items() if v not in (None, [], {})}}
    summary, report = _run_audit(spec, predictor, model, data, outcome, config)
    print(f"{summary['criterion']}: {_verdict(summary)} "
          f"aggregate={_fmt(summary['aggregate'])} "
          f"threshold={_fmt(summary['threshold'])}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(summary, out / "report.json")
        if report is not None and report.densities:
            _write_density_csv(report, out / f"{summary['criterion']}_density.csv")
        print(f"wrote {out / 'report.json'}")
    if args.strict and summary["passed"] is False:
        return 2
    return 0


def _resolve_experiment(cfg: dict, seed: int):
    """Load or generate the model and its data without background columns;
    returns (model, data, source description)."""
    if "scenario" in cfg:
        sc = _config_object(cfg["scenario"], "scenario", ("kind", "n", "seed", "params"))
        if "kind" not in sc:
            raise _Failure("config: scenario needs a 'kind'")
        kind = sc["kind"]
        n = _config_number(sc.get("n", 1000), int, "scenario n")
        sc_seed = _config_number(sc.get("seed", rng.child_seed(seed, rng.TAG_SCENARIO)), int,
                                 "scenario seed")
        params = ScenarioParams(kind, dict(_config_object(sc.get("params", {}),
                                                          "scenario params")),
                                n=n, seed=sc_seed)
        model, raw = generate(params)
        source = {"scenario": {"kind": kind, "n": n, "seed": sc_seed,
                               "params": dict(params.params)}}
        return model, raw.drop(model.background), source
    if "model" in cfg:
        model = _load_model_file(cfg["model"])
        if "data" not in cfg:
            raise _Failure("config: experiments with a model file need a 'data' path")
        data = _load_data_file(cfg["data"], model)
        return model, data, {"model": cfg["model"], "data": cfg["data"]}
    raise _Failure("config: experiment needs either 'scenario' or 'model'")


def _normalize_recipes(cfg: dict) -> list[dict]:
    """The recipe entries as objects; config errors for a malformed entry or
    manifest, an unknown recipe or key, or a repeated recipe."""
    raw = cfg.get("recipes")
    if not raw or not isinstance(raw, list):
        raise _Failure("config: experiment needs a non-empty 'recipes' list")
    out = []
    for item in raw:
        if isinstance(item, str):
            item = {"recipe": item}
        if not isinstance(item, dict) or "recipe" not in item:
            raise _Failure(f"config: bad recipe entry {item!r}")
        if item["recipe"] not in RECIPES:
            raise _Failure(f"config: unknown recipe {item['recipe']!r}")
        reads = ("manifest",) if item["recipe"] == "fair_learning" else ()
        _config_object(item, f"{item['recipe']} recipe", ("recipe", "head", *reads))
        if "manifest" in item:
            _manifest(item["manifest"])
        out.append(item)
    names = [r["recipe"] for r in out]
    if len(set(names)) != len(names):
        raise _Failure("config: duplicate recipe names")
    return out


def run_experiment(cfg: dict, out_dir: Path, strict: bool, seed: int) -> int:
    """Split, fit every recipe, then run each audit spec across the recipes,
    and write report files; exit code. Stdout holds each recipe's metric line
    and its audit lines, recipe by recipe."""
    model, obs, source = _resolve_experiment(cfg, seed)
    outcome = _single_outcome(model, cfg.get("outcome"))
    head = cfg.get("head", "linear")
    mcmc = _mcmc_from_blob(cfg.get("mcmc"), seed)
    recipes = _normalize_recipes(cfg)
    for rc in recipes:
        _check_head(rc["recipe"], rc.get("head", head))
    audits_cfg = cfg.get("audits", [])
    if not isinstance(audits_cfg, list):
        raise _Failure(f"config: 'audits' must be a list of audit specs, got {audits_cfg!r}")
    for audit_spec in audits_cfg:  # a malformed spec fails before any fit
        _audit_args(audit_spec)

    if outcome not in obs.data:
        raise _Failure(f"config: outcome column {outcome!r} missing from the data")
    train_idx, test_idx, stratified = _split_indices(obs.column(outcome),
                                                     _TRAIN_FRAC, seed)
    train, test = obs.take(train_idx), obs.take(test_idx)

    out_dir.mkdir(parents=True, exist_ok=True)
    predictors_dir = out_dir / "predictors"
    densities_dir = out_dir / "densities"
    predictors_dir.mkdir(exist_ok=True)
    if audits_cfg:
        densities_dir.mkdir(exist_ok=True)
    if "scenario" in source:
        save_model(model, out_dir / "model.json")

    resolved = {"source": source, "outcome": outcome, "head": head,
                "recipes": recipes, "audits": audits_cfg, "train_frac": _TRAIN_FRAC,
                "mcmc": {"chains": mcmc.chains, "burn_in": mcmc.burn_in,
                         "kept": mcmc.kept, "thin": mcmc.thin,
                         "proposal_std": mcmc.proposal_std}}
    report = {"config": resolved,
              "seeds": {"master": seed, "mcmc": mcmc.seed, "split": seed,
                        **({"scenario": source["scenario"]["seed"]}
                           if "scenario" in source else {})},
              "split": {"n_train": int(train.n), "n_test": int(test.n),
                        "stratified": stratified},
              "recipes": {}}

    # fit phase: every recipe is fitted, saved, and scored on the test rows
    predictors = {}
    for rc in recipes:
        name = rc["recipe"]
        head_r = rc.get("head", head)
        manifest = _manifest(rc["manifest"]) if "manifest" in rc else None
        predictor, predict_model = _fit_recipe(name, train, model, outcome,
                                               head_r, mcmc, manifest)
        save_predictor(predictor, predictors_dir / f"{name}.json")
        if predict_model is not model:
            save_model(predict_model, predictors_dir / f"{name}.model.json",
                       fit_meta={"recipe": name, "seed": seed})
        preds = fair_predict(predictor, predict_model, test, config=mcmc)
        metric_name, value = _test_metric(head_r, test.numeric(outcome), preds)
        report["recipes"][name] = {"head": head_r, "metric": metric_name,
                                   "value": value, "audits": []}
        predictors[name] = predictor

    # audit phase: each spec runs across the recipes, which audit the same
    # model on the same test records, so one MH posterior serves them all, and so
    # does each branch pass that reads the same intervened, pruned model
    failures = 0
    for i, audit_spec in enumerate(audits_cfg):
        with _reuse_passes():
            for name, predictor in predictors.items():
                summary, rep = _run_audit(audit_spec, predictor, model, test,
                                          outcome, mcmc)
                report["recipes"][name]["audits"].append(summary)
                if summary["passed"] is False:
                    failures += 1
                if rep is not None and rep.densities:
                    _write_density_csv(
                        rep, densities_dir / f"{name}_{i}_{summary['criterion']}.csv")
    for name, entry in report["recipes"].items():
        print(f"{name}: {entry['metric']}={entry['value']:.6g} "
              f"(n_train={train.n}, n_test={test.n})")
        for summary in entry["audits"]:
            print(f"  audit {summary['criterion']}: {_verdict(summary)} "
                  f"aggregate={_fmt(summary['aggregate'])}")

    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("recipe", "head", "metric", "value",
                         "n_train", "n_test"))
        for name, entry in report["recipes"].items():
            writer.writerow((name, entry["head"], entry["metric"],
                             _format_value(entry["value"]), train.n, test.n))
    _write_json(report, out_dir / "report.json")
    print(f"wrote {out_dir / 'report.json'}")
    return 2 if strict and failures else 0


def cmd_experiment(args) -> int:
    path = args.config
    if not os.path.exists(path):
        raise _Failure(f"config: experiment config not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _Failure(f"config: {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise _Failure("config: the experiment config must be a JSON object")
    source = ("scenario",) if "scenario" in cfg else ("model", "data")
    _config_object(cfg, "experiment", _EXPERIMENT_KEYS + source)
    if args.seed is not None:
        seed = int(args.seed)
    elif "seed" in cfg:
        seed = _config_number(cfg["seed"], int, "seed")
    else:
        seed = _resolve_seed(None)
    out = args.out or cfg.get("out")
    if not out:
        raise _Failure("config: no output directory (--out flag or 'out' key)")
    if not isinstance(out, str):
        raise _Failure(f"config: out must be a path, got {out!r}")
    if not isinstance(cfg.get("strict", False), bool):
        raise _Failure(f"config: strict must be true or false, got {cfg['strict']!r}")
    strict = args.strict or cfg.get("strict", False)
    return run_experiment(cfg, Path(out), strict, seed)


# -- parser ---------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help="random seed (default: $CFAIR_SEED, else 0)")


def _add_mcmc(sp) -> None:
    for key in _MCMC_FLAGS:
        sp.add_argument("--" + key.replace("_", "-"), type=int,
                        default=getattr(_MCMC_DEFAULT, key))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfair",
                     description="Structural causal models, counterfactual "
                                 "inference, fair training, fairness audits.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("validate",
                       help="check a model file; print issues or the evaluation order")
    p.add_argument("model", help="model JSON file")
    _add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("simulate", help="draw rows from a model into a CSV")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("scenario",
                       help="generate a built-in scenario (model.json + data.csv)")
    p.add_argument("kind", choices=SCENARIO_KINDS)
    p.add_argument("--param", action="append", type=_assignment, default=[],
                   metavar="NAME=VALUE", help="override a scenario parameter")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(handler=cmd_scenario)

    p = sub.add_parser("fit", help="fit a predictor recipe on a dataset")
    p.add_argument("model", help="model JSON file")
    p.add_argument("data", help="training CSV")
    p.add_argument("--recipe", required=True, choices=RECIPES)
    p.add_argument("--head", choices=("linear", "logistic"), default="linear")
    p.add_argument("--outcome", default=None,
                   help="outcome column (default: the model's single outcome)")
    p.add_argument("--manifest", default=None,
                   help="input manifest JSON for fair_learning")
    p.add_argument("--out", default="predictor.json")
    p.add_argument("--fitted-model-out", default=None,
                   help="also write the model the predictor scores against")
    _add_mcmc(p)
    _add_common(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("audit", help="run one fairness criterion on a predictor")
    p.add_argument("predictor", help="predictor JSON file")
    p.add_argument("model", help="model JSON file")
    p.add_argument("data", help="audit CSV")
    p.add_argument("--criterion", required=True, choices=CRITERIA)
    p.add_argument("--a", action="append", type=_assignment, default=[],
                   metavar="NAME=VALUE", help="factual protected value (repeatable)")
    p.add_argument("--a-prime", action="append", type=_assignment, default=[],
                   metavar="NAME=VALUE", help="counterfactual protected value")
    p.add_argument("--path", action="append", default=[], metavar="A,X,Y",
                   help="comma-separated causal path (repeatable; criterion path)")
    p.add_argument("--given", action="append", type=_assignment, default=[],
                   metavar="NAME=VALUE", help="evidence for criterion ace")
    p.add_argument("--record", type=int, default=None,
                   help="row index for criterion ps (default: 0)")
    p.add_argument("--y", type=float, default=None,
                   help="target prediction for criterion ps")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--max-records", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--outcome", default=None)
    p.add_argument("--out", default=None, help="directory for report.json")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when the audit fails")
    _add_mcmc(p)
    _add_common(p)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("experiment",
                       help="split, fit recipes, audit, and write a report")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", default=None, help="output directory "
                                               "(overrides the config)")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when any audit fails")
    _add_common(p)
    p.set_defaults(handler=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _Failure as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CfairError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
