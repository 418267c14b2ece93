import contextlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import csv_oracle
from cfair import (SCENARIO_KINDS, Dataset, ScenarioParams, ancestral_sample, generate,
                   load_model, load_predictor, save_model)
from cfair import cli, counterfactual, metrics
from cfair.cli import main
from helpers import chain_model, red_car, split_outcome_model


def _read(path) -> bytes:
    return Path(path).read_bytes()


def _scenario_files(tmp_path, kind="red_car", n=400, seed=3, label="sc"):
    out = tmp_path / label
    code = main(["scenario", kind, "--n", str(n), "--seed", str(seed),
                 "--out", str(out)])
    assert code == 0
    return out / "model.json", out / "data.csv"


# ---------------------------------------------------------------------------
# validate


def test_validate_reports_ok_with_order(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(chain_model(), path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: ")
    assert out.split()[1:] == ["U", "A", "X", "Y"]


def test_validate_lists_issue_codes(tmp_path, capsys):
    from cfair import (CausalModel, LinearGaussian, NormalPrior, Role,
                       StructuralEquation, Variable)
    cyclic = CausalModel(
        variables=(Variable("X", Role.OBSERVED), Variable("Y", Role.OUTCOME)),
        equations=(StructuralEquation("X", ("Y",), LinearGaussian(0.0, (1.0,), 1.0)),
                   StructuralEquation("Y", ("X",), LinearGaussian(0.0, (1.0,), 1.0))),
        priors={})
    path = tmp_path / "cyclic.json"
    save_model(cyclic, path)
    assert main(["validate", str(path)]) == 1
    assert "CycleDetected" in capsys.readouterr().out


def test_validate_missing_file_is_config_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("config:")


# ---------------------------------------------------------------------------
# scenario / simulate determinism


def test_scenario_output_is_reproducible(tmp_path):
    m1, d1 = _scenario_files(tmp_path, label="a", seed=9)
    m2, d2 = _scenario_files(tmp_path, label="b", seed=9)
    assert _read(m1) == _read(m2)
    assert _read(d1) == _read(d2)
    model = load_model(m1)
    data = Dataset.from_csv(d1)
    assert set(data.columns) == {v.name for v in model.variables}


def test_simulate_writes_seeded_rows(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(split_outcome_model(noise=0.5), model_path)
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["simulate", str(model_path), "--n", "50", "--seed", "4",
                 "--out", str(out1)]) == 0
    assert "50 rows" in capsys.readouterr().out
    assert main(["simulate", str(model_path), "--n", "50", "--seed", "4",
                 "--out", str(out2)]) == 0
    assert _read(out1) == _read(out2)
    assert Dataset.from_csv(out1).n == 50


def test_a_negative_row_count_is_an_error_line_not_a_traceback(tmp_path, capsys):
    # each once ended in numpy's "negative dimensions are not allowed"
    model_path, _ = _scenario_files(tmp_path, n=5)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "red_car", "n": -2}, "recipes": ["full"]}))
    for argv, message in (
            (["scenario", "red_car", "--n", "-5", "--out", str(tmp_path / "s")],
             "n must be at least 0, got -5"),
            (["simulate", str(model_path), "--n", "-5", "--out", str(tmp_path / "d.csv")],
             "row count must be at least 0, got -5"),
            (["experiment", str(cfg), "--out", str(tmp_path / "o")],
             "n must be at least 0, got -2")):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"DimensionMismatch: {message}\n"


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_scenario_and_simulate_files_match_the_cell_by_cell_writer(tmp_path, kind):
    model_path, data_path = _scenario_files(tmp_path, kind=kind, n=300, seed=12)
    _, data = generate(ScenarioParams(kind, {}, n=300, seed=12))
    csv_oracle.write(data, tmp_path / "oracle.csv")
    assert _read(data_path) == _read(tmp_path / "oracle.csv")
    sim_path = tmp_path / "sim.csv"
    assert main(["simulate", str(model_path), "--n", "300", "--seed", "13",
                 "--out", str(sim_path)]) == 0
    csv_oracle.write(ancestral_sample(load_model(model_path), 300, 13), tmp_path / "oracle.csv")
    assert _read(sim_path) == _read(tmp_path / "oracle.csv")


def test_seed_env_var_matches_flag(tmp_path, monkeypatch):
    model_path = tmp_path / "model.json"
    save_model(split_outcome_model(noise=0.5), model_path)
    by_flag, by_env = tmp_path / "flag.csv", tmp_path / "env.csv"
    monkeypatch.delenv("CFAIR_SEED", raising=False)
    assert main(["simulate", str(model_path), "--n", "40", "--seed", "11",
                 "--out", str(by_flag)]) == 0
    monkeypatch.setenv("CFAIR_SEED", "11")
    assert main(["simulate", str(model_path), "--n", "40",
                 "--out", str(by_env)]) == 0
    assert _read(by_flag) == _read(by_env)


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_loadable_predictor(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path)
    pred_path = tmp_path / "unaware.json"
    assert main(["fit", str(model_path), str(data_path), "--recipe", "unaware",
                 "--out", str(pred_path)]) == 0
    predictor = load_predictor(pred_path)
    assert predictor.labels == ("intercept", "X")
    slope = float(predictor.weights[1])
    assert abs(slope - 0.5) <= 0.1
    assert predictor.training["outcome"] == "Y"


def test_fit_latent_recipe_saves_fitted_model(tmp_path):
    model_path, data_path = _scenario_files(tmp_path, kind="law_school",
                                            n=500, seed=6, label="ls")
    pred_path = tmp_path / "fair_k.json"
    fitted_path = tmp_path / "fitted.json"
    assert main(["fit", str(model_path), str(data_path),
                 "--recipe", "fair_k", "--out", str(pred_path),
                 "--fitted-model-out", str(fitted_path),
                 "--chains", "1", "--burn-in", "100", "--kept", "20",
                 "--thin", "2", "--seed", "2"]) == 0
    predictor = load_predictor(pred_path)
    assert "K" in predictor.labels
    fitted = load_model(fitted_path)
    assert {v.name for v in fitted.variables} == {"K", "R", "S", "GPA", "LSAT", "FYA"}
    blob = json.loads(_read(fitted_path))
    assert blob["fit_meta"] == {"recipe": "fair_k", "seed": 2}


def test_fit_rejects_an_mcmc_setting_that_keeps_no_draw(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path, kind="law_school", n=20, label="ls")
    code = main(["fit", str(model_path), str(data_path), "--recipe", "fair_k",
                 "--thin", "0", "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert capsys.readouterr().err == "DimensionMismatch: mcmc thin must be at least 1, got 0\n"
    assert not (tmp_path / "p.json").exists()


def test_fit_rejects_missing_manifest_file(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path)
    code = main(["fit", str(model_path), str(data_path), "--recipe",
                 "fair_learning", "--manifest", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("config:")


# ---------------------------------------------------------------------------
# audit


def _fit_recipe_file(tmp_path, recipe, label):
    model_path, data_path = _scenario_files(tmp_path, label=f"{label}_sc")
    pred_path = tmp_path / f"{label}.json"
    assert main(["fit", str(model_path), str(data_path), "--recipe", recipe,
                 "--out", str(pred_path)]) == 0
    return pred_path, model_path, data_path


def test_audit_pass_and_report_file(tmp_path, capsys):
    pred, model, data = _fit_recipe_file(tmp_path, "full", "full")
    out_dir = tmp_path / "report"
    code = main(["audit", str(pred), str(model), str(data),
                 "--criterion", "cf", "--a", "A=1", "--a-prime", "A=-1",
                 "--draws", "100", "--max-records", "30",
                 "--out", str(out_dir), "--strict"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    blob = json.loads(_read(out_dir / "report.json"))
    assert blob["criterion"] == "cf"
    assert blob["passed"] is True
    assert (out_dir / "cf_density.csv").exists()


def test_audit_strict_failure_exits_two(tmp_path, capsys):
    pred, model, data = _fit_recipe_file(tmp_path, "unaware", "unaware")
    code = main(["audit", str(pred), str(model), str(data),
                 "--criterion", "cf", "--a", "A=1", "--a-prime", "A=-1",
                 "--draws", "100", "--max-records", "30", "--strict"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_audit_library_errors_exit_one(tmp_path, capsys):
    pred, model, data = _fit_recipe_file(tmp_path, "unaware", "err")
    code = main(["audit", str(pred), str(model), str(data),
                 "--criterion", "cf", "--a", "A=5", "--a-prime", "A=-1",
                 "--draws", "20"])
    assert code == 1
    assert capsys.readouterr().err.startswith("EmptyGroup")


def test_audit_missing_assignment_is_config_error(tmp_path, capsys):
    pred, model, data = _fit_recipe_file(tmp_path, "unaware", "cfg")
    code = main(["audit", str(pred), str(model), str(data), "--criterion", "cf"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config:")


def test_usage_errors_exit_sixtyfour(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "m.json", "d.csv"])  # --recipe is required
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["defragment"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["validate", "m.json", "--threads", "2"])  # the flag was removed
    assert exc.value.code == 64
    capsys.readouterr()


def test_audit_path_writes_its_report_and_densities(tmp_path, capsys):
    model, data = _scenario_files(tmp_path, kind="law_school", n=300, label="law")
    pred = tmp_path / "full.json"
    assert main(["fit", str(model), str(data), "--recipe", "full", "--out", str(pred)]) == 0
    common = [str(pred), str(model), str(data), "--criterion", "path",
              "--a", "R=1", "--a-prime", "R=0", "--draws", "20", "--max-records", "10",
              "--burn-in", "20", "--kept", "10", "--thin", "1"]
    assert main(["audit", *common]) == 1
    assert capsys.readouterr().err == "config: criterion path needs at least one --path\n"
    out_dir = tmp_path / "path_report"
    assert main(["audit", *common, "--path", "R,GPA", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.startswith("path: ")
    blob = json.loads(_read(out_dir / "report.json"))
    assert blob["criterion"] == "path"
    assert blob["detail"]["params"]["paths"] == [["R", "GPA"]]
    assert blob["detail"]["params"]["held"] == ["LSAT"]
    assert len(blob["detail"]["per_record"]) == 10
    density = (out_dir / "path_density.csv").read_text().splitlines()
    assert density[0] == "value,branch" and len(density) == 1 + 2 * 10


def test_audit_ftu_and_ace_summaries(tmp_path, capsys):
    pred, model, data = _fit_recipe_file(tmp_path, "unaware", "aux")
    assert main(["audit", str(pred), str(model), str(data), "--criterion", "ftu"]) == 0
    assert "PASS" in capsys.readouterr().out
    out_dir = tmp_path / "ace_report"
    assert main(["audit", str(pred), str(model), str(data),
                 "--criterion", "ace", "--a", "A=1", "--a-prime", "A=-1",
                 "--given", "X=1.0", "--draws", "2000",
                 "--out", str(out_dir)]) == 0
    assert "INFO" in capsys.readouterr().out
    blob = json.loads(_read(out_dir / "report.json"))
    assert blob["detail"]["method"] == "exact"
    # the evidence pins X, the unaware head's only input, so no effect of the
    # flip can reach the prediction in either regime
    assert blob["aggregate"] == 0.0


def test_audit_ps_enumerates_the_states_a_fair_learning_predictor_reads(tmp_path, capsys):
    # the loan predictor reads the backgrounds P and Q; (P, Q) = (0, 1) agrees
    # with every employed record and stays put under do(A = 1)
    model, data = _scenario_files(tmp_path, kind="loan", n=500, seed=3)
    pred = tmp_path / "fair.json"
    assert main(["fit", str(model), str(data), "--recipe", "fair_learning",
                 "--out", str(pred)]) == 0
    record = int(np.flatnonzero(Dataset.from_csv(data).column("Employed") == 1)[0])
    y = float(load_predictor(pred).score({"P": np.array([0]), "Q": np.array([1])})[0])
    out_dir = tmp_path / "ps"
    assert main(["audit", str(pred), str(model), str(data), "--criterion", "ps",
                 "--record", str(record), "--a-prime", "A=1", "--y", repr(y),
                 "--out", str(out_dir)]) == 0
    blob = json.loads(_read(out_dir / "report.json"))
    assert blob["detail"]["method"] == "enumeration"
    assert blob["aggregate"] == 0.0
    capsys.readouterr()


def test_audit_ps_needs_a_target_prediction(tmp_path, capsys):
    # no default target: the factual posterior-mean score is attained by no
    # enumerated state, so the audit could only fail on it
    pred, model, data = _fit_recipe_file(tmp_path, "full", "full")
    capsys.readouterr()
    out_dir = tmp_path / "ps"
    assert main(["audit", str(pred), str(model), str(data), "--criterion", "ps",
                 "--a-prime", "A=-1", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "config: criterion ps needs --y\n"
    assert not out_dir.exists()
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "red_car", "n": 50}, "recipes": ["full"],
                               "audits": [{"criterion": "ps", "a_prime": {"A": -1}}]}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config: criterion ps needs --y\n"
    # audit specs are checked before any recipe is fitted
    assert not (tmp_path / "o").exists()


def test_fit_and_audit_read_past_the_background_columns(tmp_path, capsys):
    # the CLI never parses U, so a data file without it gives the same bytes
    model, data = _scenario_files(tmp_path)
    observed = tmp_path / "observed.csv"
    Dataset.from_csv(data).drop(("U",)).to_csv(observed)
    outputs = []
    for label, path in (("with_u", data), ("without_u", observed)):
        pred = tmp_path / f"{label}.json"
        assert main(["fit", str(model), str(path), "--recipe", "unaware",
                     "--out", str(pred)]) == 0
        assert main(["audit", str(pred), str(model), str(path),
                     "--criterion", "cf", "--a", "A=1", "--a-prime", "A=-1",
                     "--draws", "50", "--max-records", "20",
                     "--out", str(tmp_path / f"audit_{label}")]) == 0
        audit_dir = tmp_path / f"audit_{label}"
        outputs.append([_read(pred), _read(audit_dir / "report.json"),
                        _read(audit_dir / "cf_density.csv")])
    assert outputs[0] == outputs[1]
    capsys.readouterr()


def test_data_of_background_columns_only_is_a_config_error(tmp_path, capsys):
    model, data = _scenario_files(tmp_path)
    only_u = tmp_path / "only_u.csv"
    Dataset.from_csv(data).take(np.arange(5)).drop(("A", "X", "Y")).to_csv(only_u)
    assert _read(only_u).startswith(b"U\r\n")
    capsys.readouterr()
    code = main(["fit", str(model), str(only_u), "--recipe", "unaware",
                 "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert capsys.readouterr().err == "config: the data holds only background columns\n"


# ---------------------------------------------------------------------------
# experiment


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = {
        "scenario": {"kind": "law_school", "n": 400, "seed": 5},
        "outcome": "FYA",
        "recipes": ["full", "unaware", "fair_k", "fair_add"],
        "mcmc": {"chains": 2, "burn_in": 100, "kept": 25, "thin": 2},
        "audits": [{"criterion": "cf", "a": {"R": 1}, "a_prime": {"R": 0},
                    "draws": 100, "max_records": 20}],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main(["experiment", str(cfg_path), "--out", str(out_dir),
                 "--seed", "1"]) == 0
    capsys.readouterr()

    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "recipe,head,metric,value,n_train,n_test"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["full", "unaware", "fair_k", "fair_add"]
    assert all(r[2] == "rmse" and float(r[3]) > 0 for r in rows)

    report = json.loads(_read(out_dir / "report.json"))
    assert report["config"]["outcome"] == "FYA"
    assert report["config"]["mcmc"]["kept"] == 25
    assert report["seeds"]["master"] == 1
    assert report["seeds"]["scenario"] == 5
    assert report["split"]["n_train"] + report["split"]["n_test"] == 400
    for name in ("full", "unaware", "fair_k", "fair_add"):
        entry = report["recipes"][name]
        assert len(entry["audits"]) == 1
        assert entry["audits"][0]["criterion"] == "cf"
    assert report["recipes"]["fair_k"]["audits"][0]["passed"] is True
    assert report["recipes"]["full"]["audits"][0]["passed"] is False
    assert (out_dir / "predictors" / "fair_k.model.json").exists()
    assert (out_dir / "model.json").exists()
    density = out_dir / "densities" / "full_0_cf.csv"
    assert density.read_text().splitlines()[0] == "value,branch"


def _experiment_files(out_dir) -> dict:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_experiment_without_the_reuse_scope_gives_the_same_bytes(tmp_path, capsys,
                                                                 monkeypatch):
    # every recipe's race audit reads one MH posterior, and so does every sex
    # audit; without the scope each recipe abducts its own. The three recipes'
    # predictors read the same pruned model, so within a spec each branch
    # pass runs for the first recipe only
    cfg = {
        "scenario": {"kind": "law_school", "n": 300, "seed": 4},
        "outcome": "FYA",
        "recipes": ["full", "unaware", "fair_add"],
        "mcmc": {"chains": 2, "burn_in": 20, "kept": 10, "thin": 1},
        "audits": [{"criterion": "cf", "a": {"R": 1}, "a_prime": {"R": 0},
                    "draws": 20, "max_records": 15},
                   {"criterion": "cf", "a": {"S": 1}, "a_prime": {"S": 0},
                    "draws": 20, "max_records": 15}],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    targets = []
    target = counterfactual._Target

    def counted(*args, **kwargs):
        targets.append(1)
        return target(*args, **kwargs)

    monkeypatch.setattr(counterfactual, "_Target", counted)
    passes = []
    forward = metrics.forward_eval

    def counted_eval(model, given, *args, **kwargs):
        if {v.name for v in model.variables} - set(given):  # computes a column
            passes.append(1)
        return forward(model, given, *args, **kwargs)

    monkeypatch.setattr(metrics, "forward_eval", counted_eval)
    runs = []
    for scope in (cli._reuse_passes, contextlib.nullcontext):
        monkeypatch.setattr(cli, "_reuse_passes", scope)
        targets.clear()
        passes.clear()
        out_dir = tmp_path / "run"
        assert main(["experiment", str(cfg_path), "--out", str(out_dir), "--seed", "2"]) == 0
        runs.append((capsys.readouterr().out, _experiment_files(out_dir), len(targets),
                     len(passes)))
        shutil.rmtree(out_dir)
    (out, files, sampled, branched), (out_no_scope, files_no_scope, sampled_no_scope,
                                      branched_no_scope) = runs
    assert out == out_no_scope
    assert files == files_no_scope
    assert {"report.json", "metrics.csv", "densities/full_1_cf.csv"} <= set(files)
    assert (sampled, sampled_no_scope) == (2, 6)
    # 2 specs x 2 branches, once with the scope and once per recipe without
    assert (branched, branched_no_scope) == (4, 12)
    # each recipe's metric line, then its audit lines, recipe by recipe
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
        "full", "  audit cf", "  audit cf", "unaware", "  audit cf", "  audit cf",
        "fair_add", "  audit cf", "  audit cf"]


def test_experiment_with_a_path_spec_gives_the_same_bytes_without_the_reuse_scope(
        tmp_path, capsys, monkeypatch):
    cfg = {
        "scenario": {"kind": "law_school", "n": 300, "seed": 4},
        "outcome": "FYA",
        "recipes": ["full", "unaware", "fair_add"],
        "mcmc": {"chains": 2, "burn_in": 20, "kept": 10, "thin": 1},
        "audits": [{"criterion": "path", "a": {"R": 1}, "a_prime": {"R": 0},
                    "paths": [["R", "GPA"]], "draws": 20, "max_records": 15}],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    runs = []
    for scope in (cli._reuse_passes, contextlib.nullcontext):
        monkeypatch.setattr(cli, "_reuse_passes", scope)
        out_dir = tmp_path / "run"
        assert main(["experiment", str(cfg_path), "--out", str(out_dir), "--seed", "2"]) == 0
        runs.append((capsys.readouterr().out, _experiment_files(out_dir)))
        shutil.rmtree(out_dir)
    assert runs[0] == runs[1]
    out, files = runs[0]
    assert "densities/fair_add_0_path.csv" in files
    report = json.loads(files["report.json"])
    assert report["recipes"]["full"]["audits"][0]["detail"]["params"]["held"] == ["LSAT"]


def test_experiment_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"kind": "red_car"}}))
    assert main(["experiment", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "config:" in capsys.readouterr().err
    worse = tmp_path / "worse.json"
    worse.write_text("not json")
    assert main(["experiment", str(worse), "--out", str(tmp_path / "o2")]) == 1
    assert "config:" in capsys.readouterr().err
    # malformed numbers are config errors, not tracebacks
    base = {"scenario": {"kind": "red_car", "n": 50}, "recipes": ["full"]}
    for change, message in (({"seed": "abc"}, "seed must be an integer, got 'abc'"),
                            ({"scenario": {"kind": "red_car", "n": "many"}},
                             "scenario n must be an integer, got 'many'"),
                            ({"mcmc": {"chains": "two"}},
                             "mcmc chains must be an integer, got 'two'"),
                            ({"audits": [{"criterion": "ps", "a_prime": {"A": -1},
                                          "record": "first"}]},
                             "record must be an integer, got 'first'"),
                            ({"audits": [{"criterion": "cf", "a": {"A": 1},
                                          "a_prime": {"A": -1}, "draws": "many"}]},
                             "draws must be an integer, got 'many'"),
                            ({"audits": [{"criterion": "strict", "a": {"A": 1},
                                          "a_prime": {"A": -1}, "max_records": "all"}]},
                             "max_records must be an integer, got 'all'"),
                            ({"audits": [{"criterion": "cf", "a": {"A": 1},
                                          "a_prime": {"A": -1}, "threshold": "high"}]},
                             "threshold must be a number, got 'high'"),
                            ({"audits": [{"criterion": "strict", "a": {"A": 1},
                                          "a_prime": {"A": -1}, "tol": "tiny"}]},
                             "tol must be a number, got 'tiny'")):
        bad.write_text(json.dumps({**base, **change}))
        assert main(["experiment", str(bad), "--out", str(tmp_path / "o3")]) == 1
        assert capsys.readouterr().err == f"config: {message}\n"


_MISSING_PROTECTED = {"background_inputs": ["U"], "observable_inputs": [],
                      "include_protected": False}


@pytest.mark.parametrize("change, message", [
    ({"audits": [{"criterion": "cf", "a": {"A": 1}, "a_prime": {"A": -1},
                  "max_record": 5}]},
     "unknown cf audit keys ['max_record']"),
    ({"audits": [{"criterion": "cf", "a": {"A": 1}, "a_prime": {"A": -1},
                  "treshold": 0.5}]},
     "unknown cf audit keys ['treshold']"),
    ({"recipes": [{"recipe": "full", "hed": "logistic"}]}, "unknown full recipe keys ['hed']"),
    ({"recipes": [{"recipe": "full", "manifest": {}}]}, "unknown full recipe keys ['manifest']"),
    ({"audit": [{"criterion": "ftu"}]}, "unknown experiment keys ['audit']"),
    ({"model": "model.json"}, "unknown experiment keys ['model']"),
], ids=["audit-max_record", "audit-treshold", "recipe-hed", "manifest-for-full",
        "top-level-audit", "model-beside-scenario"])
def test_experiment_keys_that_nothing_reads_fail_before_fitting(tmp_path, capsys, change,
                                                                 message):
    # each of these used to run at the defaults and exit 0
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "red_car", "n": 50},
                               "recipes": ["full"], **change}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change, message", [
    ({"audits": {"criterion": "ftu"}},
     "'audits' must be a list of audit specs, got {'criterion': 'ftu'}"),
    ({"audits": ["cf"]}, "bad audit spec 'cf'"),
    ({"scenario": "red_car"}, "scenario must be a JSON object, got 'red_car'"),
    ({"recipes": "full"}, "experiment needs a non-empty 'recipes' list"),
    ({"recipes": [{"recipe": "fair_learning", "manifest": _MISSING_PROTECTED}]},
     "manifest needs keys ['protected']"),
    ({"audits": [{"criterion": "cf", "a": "A=1", "a_prime": {"A": -1}}]},
     "a must be a JSON object, got 'A=1'"),
    ({"head": "probit"}, "head must be linear or logistic, got 'probit'"),
    ({"recipes": ["full", {"recipe": "unaware", "head": "Linear"}]},
     "head must be linear or logistic, got 'Linear'"),
    ({"recipes": ["full", {"recipe": "fair_add", "head": "logistic"}]},
     "recipe fair_add supports only the linear head"),
    ({"strict": "no"}, "strict must be true or false, got 'no'"),
    ({"out": 5}, "out must be a path, got 5"),
], ids=["audits-object", "audit-string", "scenario-string", "recipes-string",
        "manifest-missing-key", "assignment-string", "head", "recipe-head",
        "fair_add-logistic", "strict-string", "out-number"])
def test_malformed_experiment_parts_are_config_errors(tmp_path, capsys, change, message):
    # raw ValueError, KeyError and TypeError tracebacks, a misleading message,
    # an error after the first fit, or a strict run, before
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "red_car", "n": 50},
                               "recipes": ["full"], **change}))
    flags = [] if "out" in change else ["--out", str(tmp_path / "o")]
    assert main(["experiment", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--criterion", "cf", "--a", "A=1", "--a-prime", "A=-1", "--tol", "5", "--y", "3"],
     "unknown cf audit keys ['tol', 'y']"),
    (["--criterion", "ftu", "--a", "A=1", "--a-prime", "A=-1"],
     "unknown ftu audit keys ['a', 'a_prime']"),
    (["--criterion", "strict", "--a", "A=1", "--a-prime", "A=-1", "--threshold", "0.1"],
     "unknown strict audit keys ['threshold']"),
], ids=["cf-tol-y", "ftu-assignments", "strict-threshold"])
def test_audit_flags_the_criterion_does_not_read_are_config_errors(tmp_path, capsys,
                                                                   flags, message):
    pred, model, data = _fit_recipe_file(tmp_path, "full", "unread")
    capsys.readouterr()
    out_dir = tmp_path / "report"
    assert main(["audit", str(pred), str(model), str(data), *flags,
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("text, message", [
    (json.dumps(_MISSING_PROTECTED), "manifest needs keys ['protected']"),
    (json.dumps({**_MISSING_PROTECTED, "protected": ["A"], "backgrounds": ["U"]}),
     "unknown manifest keys ['backgrounds']"),
    ('["U"]', "manifest must be a JSON object, got ['U']"),
    ("{", "{path}: Expecting property name enclosed in double quotes"),
], ids=["missing-key", "unknown-key", "not-an-object", "not-json"])
def test_fit_rejects_a_malformed_manifest(tmp_path, capsys, text, message):
    # a missing key used to raise a raw KeyError, and bad JSON a JSONDecodeError
    model_path, data_path = _scenario_files(tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(text)
    message = message.replace("{path}", str(manifest_path))
    capsys.readouterr()
    assert main(["fit", str(model_path), str(data_path), "--recipe", "fair_learning",
                 "--manifest", str(manifest_path), "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err.startswith(f"config: {message}")
    assert not (tmp_path / "p.json").exists()


def test_fit_rejects_a_head_its_recipe_does_not_fit(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path)
    capsys.readouterr()
    assert main(["fit", str(model_path), str(data_path), "--recipe", "fair_add",
                 "--head", "logistic", "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err == "config: recipe fair_add supports only the linear head\n"
    assert not (tmp_path / "p.json").exists()


def test_fit_rejects_a_manifest_for_a_recipe_that_does_not_read_it(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({**_MISSING_PROTECTED, "protected": ["A"]}))
    capsys.readouterr()
    assert main(["fit", str(model_path), str(data_path), "--recipe", "full",
                 "--manifest", str(manifest_path), "--out", str(tmp_path / "p.json")]) == 1
    assert capsys.readouterr().err == "config: only recipe fair_learning reads --manifest\n"
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("audit, message", [
    # a fractional index used to audit the record below it
    ({"criterion": "ps", "a_prime": {"A": -1}, "record": 1.9},
     "record must be an integer, got 1.9"),
    ({"criterion": "cf", "a": {"A": 1}, "a_prime": {"A": -1}, "draws": True},
     "draws must be an integer, got True"),
    # every <= test against a nan threshold is false
    ({"criterion": "cf", "a": {"A": 1}, "a_prime": {"A": -1}, "threshold": "nan"},
     "threshold must be a finite number, got 'nan'"),
    ({"criterion": "strict", "a": {"A": 1}, "a_prime": {"A": -1}, "tol": float("inf")},
     "tol must be a finite number, got inf"),
], ids=["fractional-int", "bool-int", "nan-float", "inf-float"])
def test_experiment_rejects_fractional_integers_bools_and_non_finite_numbers(
        tmp_path, capsys, audit, message):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "red_car", "n": 50},
                               "recipes": ["full"], "audits": [audit]}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config: {message}\n"
    # audit specs are checked before any recipe is fitted
    assert not (tmp_path / "o").exists()


def test_experiment_rejects_a_path_spec_without_paths_before_fitting(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "law_school", "n": 50},
                               "recipes": ["full", "fair_k"],
                               "audits": [{"criterion": "path", "a": {"R": 1},
                                           "a_prime": {"R": 0}}]}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config: criterion path needs at least one --path\n"
    assert not (tmp_path / "o" / "predictors").exists()


def test_experiment_rejects_an_audit_count_below_one_before_fitting(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": {"kind": "red_car", "n": 50}, "recipes": ["full"],
                               "audits": [{"criterion": "cf", "a": {"A": 1},
                                           "a_prime": {"A": -1}, "max_records": 0}]}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config: max_records must be at least 1, got 0\n"
    assert not (tmp_path / "o").exists()


def test_config_numbers_accept_integral_floats_and_numeric_strings():
    assert cli._config_number(3.0, int, "draws") == 3
    assert cli._config_number("7", int, "seed") == 7
    assert cli._config_number("0.25", float, "threshold") == 0.25
    assert cli._config_number(2, float, "tol") == 2.0


def test_experiment_runs_dp_and_strict_audit_specs(tmp_path, capsys):
    cfg = {"scenario": {"kind": "red_car", "n": 300, "seed": 2}, "outcome": "Y",
           "recipes": ["full", "unaware"],
           "audits": [{"criterion": "dp", "a": {"A": 1}, "a_prime": {"A": -1}, "threshold": 0.5},
                      {"criterion": "strict", "a": {"A": 1}, "a_prime": {"A": -1},
                       "draws": 20, "max_records": 10}]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main(["experiment", str(cfg_path), "--out", str(out_dir), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    report = json.loads(_read(out_dir / "report.json"))
    for name in ("full", "unaware"):
        dp, strict = report["recipes"][name]["audits"]
        assert set(dp["detail"]) == {"dp_gap", "eo_gap", "predictive_parity_gap",
                                     "n_a", "n_a_prime"}
        assert dp["aggregate"] == dp["detail"]["dp_gap"] and dp["threshold"] == 0.5
        assert dp["detail"]["n_a"] + dp["detail"]["n_a_prime"] == report["split"]["n_test"]
        assert dp["detail"]["eo_gap"] is None  # Y is not 0/1
        assert strict["criterion"] == "strict" and strict["threshold"] == 0.0
        assert strict["detail"]["params"]["n_audited"] == 10
        assert (out_dir / "densities" / f"{name}_1_strict.csv").exists()
    # without noise, full's weights on X and A read U alone; unaware reads X,
    # which descends from A
    assert report["recipes"]["full"]["audits"][1]["passed"] is True
    assert report["recipes"]["unaware"]["audits"][1]["passed"] is False
    assert "  audit dp: " in out and "  audit strict: FAIL" in out


def test_experiment_with_a_logistic_head_reports_log_loss(tmp_path, capsys):
    cfg = {"scenario": {"kind": "loan", "n": 400, "seed": 1}, "head": "logistic",
           "recipes": ["full", "unaware"]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    assert main(["experiment", str(cfg_path), "--out", str(out_dir), "--seed", "1"]) == 0
    capsys.readouterr()
    report = json.loads(_read(out_dir / "report.json"))
    for name in ("full", "unaware"):
        entry = report["recipes"][name]
        assert (entry["head"], entry["metric"]) == ("logistic", "log_loss")
        assert 0.0 < entry["value"] < np.log(2.0)  # better than a coin
    rows = (out_dir / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["logistic", "log_loss"]] * 2


def test_experiment_from_a_model_and_data_file(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"model": str(model_path), "recipes": ["full"]}))
    assert main(["experiment", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config: experiments with a model file need a 'data' path\n"
    cfg_path.write_text(json.dumps({"model": str(model_path), "data": str(data_path),
                                    "recipes": ["full"]}))
    out_dir = tmp_path / "run"
    assert main(["experiment", str(cfg_path), "--out", str(out_dir), "--seed", "1"]) == 0
    capsys.readouterr()
    report = json.loads(_read(out_dir / "report.json"))
    assert report["config"]["source"] == {"model": str(model_path), "data": str(data_path)}
    assert report["seeds"] == {"master": 1, "mcmc": 1, "split": 1}
    assert report["split"]["n_train"] + report["split"]["n_test"] == 400
    assert report["recipes"]["full"]["metric"] == "rmse"
    assert not (out_dir / "model.json").exists()  # the model is the caller's file


def test_fit_reads_a_fair_learning_manifest(tmp_path, capsys):
    model_path, data_path = _scenario_files(tmp_path)
    manifest = {"background_inputs": ["U"], "observable_inputs": [],
                "include_protected": False, "protected": ["A"], "whitelisted": []}
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    pred_path = tmp_path / "fair.json"
    assert main(["fit", str(model_path), str(data_path), "--recipe", "fair_learning",
                 "--manifest", str(manifest_path), "--out", str(pred_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "fair_learning (linear): fit 2 weights on 400 rows")
    predictor = load_predictor(pred_path)
    assert predictor.manifest.to_json() == manifest
    assert predictor.labels == ("intercept", "U")
