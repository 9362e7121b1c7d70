"""Scenario runner: config validation, outputs, replay, exit codes."""

import ast
import copy
import csv
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import balmarkets
from balmarkets import __version__
from balmarkets.errors import (
    AsymmetricCovariance,
    BalmarketsError,
    ConfigParseError,
    IndefiniteMatrix,
    NegativeEigenvalue,
    VersionMismatch,
)
from balmarkets.jump_markets import (
    JumpSpec,
    example_death_of_company,
    simulate_relative_caps_balanced,
)
from balmarkets.market_model import MarketParams, PathGrid, ProcessSpec
from balmarkets.scenario_cli import (
    _DEFAULT_DIAGNOSTICS,
    _DEFAULT_THRESHOLDS,
    _Field,
    _FIELDS,
    _SECTIONS,
    _TOP_KEYS,
    BUILTINS,
    main,
    parse_config,
    replay_summary,
    run_scenario,
    scenario_schema,
)
from balmarkets.sde_engine import simulate_capitalizations

TINY_CAP = {
    "name": "tiny-cap",
    "model": "continuous",
    "market": {
        "a": [0.0, 0.25],
        "c": [[0.0, 0.0], [0.0, 1.0]],
        "r": 0.0,
        "s0": [1.0, 1.0],
    },
    "grid": {"T": 1.0, "dt": 0.01},
    "n_paths": 20,
    "seed": 5,
    "store_every": 10,
    # a one-unit horizon settles nothing: let every label through
    "thresholds": {"indeterminate_cap": 1.0},
}

TINY_WEIGHTS = {
    "name": "tiny-weights",
    "model": "continuous",
    "market": {
        "c": [[0.04, 0.01], [0.01, 0.09]],
        "r": 0.02,
        "kappa0": [0.6, 0.4],
    },
    "grid": {"T": 0.5, "dt": 0.01},
    "n_paths": 15,
    "seed": 6,
    "store_every": 5,
    "diagnostics": {"limiting_distribution": False},
}

TINY_JUMP = {
    "name": "tiny-jump",
    "model": "jump",
    "market": {
        "c": [[0.04, 0.0], [0.0, 0.04]],
        "kappa0": [0.5, 0.5],
    },
    "jump": {
        "atoms": [[0.2, -0.1]],
        "probs": [1.0],
        "intensity": 1.0,
    },
    "grid": {"T": 0.3, "dt": 0.005},
    "n_paths": 12,
    "seed": 7,
    "store_every": 6,
    "diagnostics": {"limiting_distribution": False},
}


def _cfg(doc):
    return parse_config(copy.deepcopy(doc))


def test_every_public_name_resolves():
    """Each name in the package's ``__all__`` and in each module's exists."""
    exported = {"balmarkets": balmarkets.__all__}
    for info in pkgutil.iter_modules(balmarkets.__path__):
        mod = importlib.import_module(f"balmarkets.{info.name}")
        if hasattr(mod, "__all__"):
            exported[mod.__name__] = mod.__all__
    assert len(exported) >= 6
    missing = [f"{mod}.{name}" for mod, names in exported.items()
               for name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing


def _roots():
    """Trees of the package's modules, and the names that have a root: each
    name loaded (as a name or an attribute) in the package or in the
    acceptance checks, and each word of README."""
    here = os.path.dirname(__file__)
    pkg = os.path.dirname(balmarkets.__file__)
    sources = [os.path.join(pkg, f) for f in sorted(os.listdir(pkg))
               if f.endswith(".py")]
    trees, loaded = [], set()
    for path in sources + [os.path.join(here, "test_acceptance.py")]:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if path in sources:
            trees.append(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    with open(os.path.join(here, "..", "README.md"), encoding="utf-8") as fh:
        promised = set(re.findall(r"\w+", fh.read()))
    return trees, loaded | promised


def test_every_public_name_has_a_root():
    """Each name in a module's ``__all__`` is loaded (as a name or an
    attribute) somewhere in the package or in the acceptance checks, or
    README names it: a name only its own unit test calls is dead code."""
    trees, rooted = _roots()
    exported = set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
    rootless = sorted(exported - rooted)
    assert len(exported) >= 40
    assert not rootless, f"public names with no root: {rootless}"


# Members kept without a root: README promises the full-investment and the
# box constraint sets, and these build them.
_ROOTLESS_ON_PURPOSE = ["ConstraintSet.box_hyperplane",
                        "ConstraintSet.budget_hyperplane"]


def test_every_public_member_has_a_root():
    """The same rule for the public dataclass fields, methods and
    properties of the package's module-level classes."""
    trees, rooted = _roots()
    members = set()
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                name = getattr(item, "name", None) or getattr(
                    getattr(item, "target", None), "id", None)
                if (isinstance(item, (ast.FunctionDef, ast.AnnAssign))
                        and not name.startswith("_")):
                    members.add((cls.name, name))
    rootless = sorted(f"{cls}.{name}" for cls, name in members
                      if name not in rooted)
    assert len(members) >= 40
    assert rootless == _ROOTLESS_ON_PURPOSE, (
        f"public members with no root: {rootless}")


def test_every_import_is_used():
    """Each name that a file of the package or of the tests imports is
    loaded in that file, or, in a module with ``__all__``, exported."""
    here = os.path.dirname(__file__)
    pkg = os.path.dirname(balmarkets.__file__)
    unused = []
    for folder in (pkg, here):
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            imported, loaded = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((a.asname or a.name).split(".")[0]
                                    for a in node.names)
                elif (isinstance(node, ast.ImportFrom)
                      and node.module != "__future__"):
                    imported.update(a.asname or a.name for a in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif (isinstance(node, ast.Assign)
                      and any(getattr(t, "id", None) == "__all__"
                              for t in node.targets)):
                    loaded.update(ast.literal_eval(node.value))
            unused += [f"{name}: {n}" for n in sorted(imported - loaded)]
    assert not unused, f"imported but never used: {unused}"


# ---------------------------------------------------------------------------
# config validation


def test_builtin_names_parse():
    for name in BUILTINS:
        cfg = _cfg(BUILTINS[name])
        assert cfg.name == name
        assert "builtin" not in cfg.resolved


def test_builtin_reference_with_overrides():
    cfg = _cfg({"builtin": "sec6_case_a0", "seed": 999,
                "n_paths": 10, "grid": {"T": 2.0, "dt": 0.01}})
    assert cfg.seed == 999
    assert cfg.n_paths == 10
    assert cfg.grid == PathGrid(dt=0.01, n_steps=200)
    # replaced wholesale, not merged: the market block is the builtin's
    assert cfg.resolved["market"]["a"] == [0.0, 0.0]


@pytest.mark.parametrize("mutate,phrase", [
    (lambda d: d.update(builtin="no_such_scenario"), "builtin"),
    (lambda d: d.update(model="discrete"), "model"),
    (lambda d: d.update(bogus_key=1), "bogus_key"),
    (lambda d: d["market"].update(bogus=2), "bogus"),
    (lambda d: d["grid"].update(dt=0.3), "grid"),
    (lambda d: d.update(n_paths=0), "n_paths"),
    (lambda d: d.update(seed=-1), "seed"),
    (lambda d: d["market"].update(s0=[1.0, -2.0]), "s0"),
    (lambda d: d["market"].pop("c"), "c"),
    (lambda d: d.update(store_every=0), "store_every"),
    (lambda d: d.pop("name"), "name"),
])
def test_bad_documents_are_rejected(mutate, phrase):
    doc = copy.deepcopy(TINY_CAP)
    mutate(doc)
    with pytest.raises(ConfigParseError, match=phrase):
        parse_config(doc)


@pytest.mark.parametrize(
    "base", [TINY_WEIGHTS, {"builtin": "perfect_balance_demo"}],
    ids=["document", "builtin"])
def test_balance_max_paths_is_rejected(base):
    # the balance diagnostic always covers every path
    doc = copy.deepcopy(base)
    doc["thresholds"] = {"balance_max_paths": 100}
    with pytest.raises(ConfigParseError, match="thresholds.balance_max_paths"):
        parse_config(doc)


def test_kappa0_must_lie_on_the_simplex():
    doc = copy.deepcopy(TINY_WEIGHTS)
    doc["market"]["kappa0"] = [0.7, 0.4]
    with pytest.raises(ConfigParseError, match="kappa0"):
        parse_config(doc)


def test_jump_probs_must_sum_to_one():
    doc = copy.deepcopy(TINY_JUMP)
    doc["jump"]["probs"] = [0.6]
    with pytest.raises(ConfigParseError, match="probs"):
        parse_config(doc)


@pytest.mark.parametrize("key, value, phrase", [
    ("atoms", [[-1.0, -1.0]], "annihilates the market"),
    ("probs", [0.5, 0.5000000001], "sum to one"),
], ids=["annihilating_atom", "probs_off_by_1e-10"])
def test_validate_rejects_a_jump_law_that_run_rejects(tmp_path, key, value,
                                                      phrase):
    doc = copy.deepcopy(TINY_JUMP)
    doc["jump"][key] = value
    if key == "probs":
        doc["jump"]["atoms"] = [[0.2, -0.1], [-0.1, 0.2]]
    with pytest.raises(ConfigParseError, match=f"^jump.{key}: .*{phrase}"):
        parse_config(copy.deepcopy(doc))
    cfg = _write_cfg(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # the library's own check raises a typed error that is still a ValueError
    jump = doc["jump"]
    with pytest.raises(BalmarketsError) as err:
        JumpSpec.finite_atoms(jump["intensity"], jump["intensity"],
                              jump["atoms"], jump["probs"])
    assert isinstance(err.value, ValueError)


def test_lam_max_must_dominate_intensity():
    # the parser takes the thinning bound from the intensity's peak, so no
    # document can set a bound below it
    doc = copy.deepcopy(TINY_TABLE_JUMP)
    doc["jump"]["intensity"]["values"] = [1.0, 3.0]
    spec = parse_config(doc).jump_spec
    assert spec.lam_max == 3.0
    assert spec.intensity_at(0.3) == 3.0
    # the library still refuses an intensity above its bound
    jump = TINY_JUMP["jump"]
    low = JumpSpec.finite_atoms(3.0, 1.0, jump["atoms"], jump["probs"])
    with pytest.raises(BalmarketsError, match="leaves \\[0, lam_max=1.0\\]"):
        low.intensity_at(0.0)


@pytest.mark.parametrize("path, value", [("jump.lam_max", 1.0), ("market.d", 2)],
                         ids=["jump.lam_max", "market.d"])
def test_derived_keys_are_unknown(tmp_path, path, value):
    # the intensity's peak and the size of c fix these keys, so a document
    # may not set them, even to the fixed value, and a summary recording one
    # does not replay
    doc = copy.deepcopy(TINY_JUMP)
    _put(doc, path, value)
    assert path not in {f.path for f in _FIELDS}
    with pytest.raises(ConfigParseError, match=rf"^{re.escape(path)}: unknown key"):
        parse_config(copy.deepcopy(doc))
    cfg = _write_cfg(tmp_path, doc)
    summary = _write_cfg(tmp_path, {"version": __version__, "config": doc},
                         "summary.json")
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg]) == 2
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert main(["replay", "--config", summary, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("doc, where", [
    ([1, 2], "config root must be a JSON object"),
    (dict(TINY_WEIGHTS, jump=TINY_JUMP["jump"]),
     "jump: only meaningful when model is 'jump'"),
    ({"builtin": "example_7_2", "model": "continuous"},
     "model: the death_of_company example is a jump model"),
    (dict(TINY_CAP, model="jump", jump=TINY_JUMP["jump"]),
     "market.a: jump scenarios evolve weights directly"),
    (dict(TINY_CAP, market={"a": [0.0], "c": [[1.0]], "s0": [1.0]}),
     "market.c: a market needs at least two companies"),
], ids=["root-list", "jump-in-continuous", "example-in-continuous",
        "a-in-jump", "c-1x1"])
def test_cross_field_rules_name_their_key(doc, where):
    with pytest.raises(ConfigParseError, match=f"^{re.escape(where)}"):
        parse_config(copy.deepcopy(doc))


def test_example_excludes_market_section():
    doc = {"name": "bad-example", "model": "jump",
           "example": "death_of_company",
           "market": TINY_JUMP["market"],
           "grid": {"T": 1.5, "dt": 1e-4},
           "n_paths": 10, "seed": 3}
    with pytest.raises(ConfigParseError, match="example"):
        parse_config(doc)


def test_death_example_rejects_a_coarse_step():
    # the analytic comparison needs dt <= 1e-3; the parser says so before a
    # run starts, and the library keeps its own guard for direct callers
    with pytest.raises(ConfigParseError, match=r"^grid\.dt: .*dt <= 0\.001"):
        parse_config({"builtin": "example_7_2", "grid": {"T": 1.5, "dt": 1e-2}})
    assert _cfg({"builtin": "example_7_2",
                 "grid": {"T": 1.5, "dt": 1e-3}}).grid.dt == 1e-3
    with pytest.raises(ValueError, match="dt <= 0.001"):
        example_death_of_company(PathGrid(dt=1e-2, n_steps=150), 4, 1)


def test_engine_inference():
    assert _cfg(TINY_CAP).engine == "capitalizations"
    assert _cfg(TINY_WEIGHTS).engine == "balanced_weights"
    assert _cfg(TINY_JUMP).engine == "jump"
    assert _cfg(BUILTINS["example_7_2"]).engine == "jump_example"


# ---------------------------------------------------------------------------
# running scenarios


def _expected_files(outd, jump=False):
    names = {"summary.json", "paths.csv", "balance.json"}
    present = set(os.listdir(outd))
    assert names <= present, present


def test_run_capitalization_scenario(tmp_path):
    summary = run_scenario(_cfg(TINY_CAP), str(tmp_path))
    _expected_files(tmp_path)
    assert summary["config"]["name"] == "tiny-cap"
    assert summary["version"] == __version__
    assert summary["balance"]["n_paths"] == 20
    assert summary["segregation"]["values"] is not None
    assert summary["limiting"]["histogram"]
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved["digests"] == summary["digests"]


def test_lln_on_a_capitalization_market_reads_the_implied_rate(tmp_path):
    """With constant coefficients the bank-rate statistic is
    ``<1, c^-1 1> (r~ - r)^2 T`` for the market's implied rate ``r~``."""
    doc = copy.deepcopy(TINY_CAP)
    a, c, r = np.array([0.1, 0.05]), np.diag([0.04, 0.09]), 0.01
    doc["market"].update(a=a.tolist(), c=c.tolist(), r=r)
    doc["diagnostics"] = {"lln": True}
    lln = run_scenario(_cfg(doc), str(tmp_path))["lln"]
    w = np.linalg.solve(c, np.ones(2))
    implied = (a @ w - 1.0) / w.sum()
    assert implied - r > 0.04
    assert lln["normalizer"] == pytest.approx(w.sum() * doc["grid"]["T"],
                                              rel=1e-12)
    assert lln["statistic"] == pytest.approx(
        w.sum() * (implied - r) ** 2 * doc["grid"]["T"], rel=1e-12)
    assert lln["ratio"] == pytest.approx(lln["statistic"] / lln["normalizer"])
    assert lln["path_index"] == 0 and lln["collapsed"] is False


def test_run_weights_scenario(tmp_path):
    summary = run_scenario(_cfg(TINY_WEIGHTS), str(tmp_path))
    _expected_files(tmp_path)
    # the balanced engine accrues no loss by construction
    assert summary["balance"]["L_terminal_max"] <= 1e-9
    assert summary["balance"]["classification_counts"] == {"Balanced": 15}
    assert summary["limiting"] == {"enabled": False}


def test_run_jump_scenario(tmp_path):
    summary = run_scenario(_cfg(TINY_JUMP), str(tmp_path))
    _expected_files(tmp_path, jump=True)
    assert summary["balance"]["L_terminal_max"] <= 1e-8
    header = (tmp_path / "paths.csv").read_text().splitlines()[0]
    assert header == ("path,step,t,kappa_1,kappa_2,"
                      "zeta_1,zeta_2,death_mode_1,death_mode_2")


@pytest.mark.parametrize("doc", [TINY_WEIGHTS, TINY_JUMP],
                         ids=["weights", "jump"])
def test_one_path_run_warns_nothing(tmp_path, doc):
    # one path has no sample covariance: it is reported as null, without
    # the warnings of a covariance with zero degrees of freedom
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(_cfg(dict(doc, n_paths=1)), str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    for point in summary["paths"]["checkpoints"]:
        assert point["kappa_cov"] == [[None, None], [None, None]]
        assert point["kappa_se"] == [0.0, 0.0]


def test_a_horizon_near_the_largest_double_runs(tmp_path):
    # the quarter checkpoints of T = 1e308 are computed without overflow
    doc = dict(TINY_WEIGHTS, grid={"T": 1e308, "dt": 1e307})
    assert main(["validate", "--config", _write_cfg(tmp_path, doc)]) == 0
    summary = run_scenario(_cfg(doc), str(tmp_path / "out"))
    steps = [point["step"] for point in summary["paths"]["checkpoints"]]
    assert steps == [0, 5, 5, 10]


def test_run_is_seed_deterministic(tmp_path):
    s1 = run_scenario(_cfg(TINY_WEIGHTS), str(tmp_path / "a"))
    s2 = run_scenario(_cfg(TINY_WEIGHTS), str(tmp_path / "b"))
    assert s1["digests"] == s2["digests"]
    doc = copy.deepcopy(TINY_WEIGHTS)
    doc["seed"] = 77
    s3 = run_scenario(_cfg(doc), str(tmp_path / "c"))
    assert s3["digests"]["paths.csv"] != s1["digests"]["paths.csv"]


# ---------------------------------------------------------------------------
# replay


def test_replay_reproduces_digests(tmp_path):
    run_scenario(_cfg(TINY_JUMP), str(tmp_path / "orig"))
    summary2, matched = replay_summary(
        str(tmp_path / "orig" / "summary.json"), str(tmp_path / "redo"),
        n_threads=3)
    assert matched


def test_replay_rejects_other_versions(tmp_path):
    run_scenario(_cfg(TINY_WEIGHTS), str(tmp_path / "orig"))
    p = tmp_path / "orig" / "summary.json"
    doc = json.loads(p.read_text())
    doc["version"] = "99.0.0"
    p.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        replay_summary(str(p), str(tmp_path / "redo"))


# ---------------------------------------------------------------------------
# command line entry point


def _write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_run_and_replay_roundtrip(tmp_path):
    cfg_path = _write_cfg(tmp_path, TINY_WEIGHTS)
    out1 = str(tmp_path / "out1")
    assert main(["run", "--config", cfg_path, "--out", out1]) == 0
    out2 = str(tmp_path / "out2")
    rc = main(["replay", "--config", os.path.join(out1, "summary.json"),
               "--out", out2])
    assert rc == 0


def test_cli_validate_accepts_builtins_and_rejects_junk(tmp_path):
    assert main(["validate", "--config", "perfect_balance_demo"]) == 0
    bad = _write_cfg(tmp_path, {"model": "continuous"}, "bad.json")
    assert main(["validate", "--config", bad]) == 2


def test_cli_list_mentions_every_builtin(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


def test_cli_prints_every_diagnostic_and_a_failed_replay(tmp_path, capsys):
    demo = _write_cfg(tmp_path, {
        "builtin": "perfect_balance_demo", "n_paths": 12,
        "grid": {"T": 0.05, "dt": 1e-3}, "thresholds": {"indeterminate_cap": 1.0},
        "diagnostics": {"limiting_distribution": True}}, "demo.json")
    death = _write_cfg(tmp_path, {
        "builtin": "example_7_2", "n_paths": 64, "grid": {"T": 1.5, "dt": 1e-3},
        "store_every": 10}, "death.json")
    for cfg, lines in ((demo, ("  limiting: ", "  lln: ratio ")),
                       (death, ("  limiting: ", "  example: sup_error "))):
        out = cfg[:-len(".json")]
        assert main(["run", "--config", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        for line in lines:
            assert any(p.startswith(line) for p in printed), (cfg, line)
    # a stored digest that no longer matches what the run writes
    path = tmp_path / "death" / "summary.json"
    saved = json.loads(path.read_text())
    saved["digests"]["paths.csv"] = "0" * 64
    path.write_text(json.dumps(saved))
    assert main(["replay", "--config", str(path),
                 "--out", str(tmp_path / "redo")]) == 1
    assert ("replay: digests differ from the stored summary"
            in capsys.readouterr().err)


def test_cli_seed_override_is_recorded(tmp_path):
    cfg_path = _write_cfg(tmp_path, TINY_WEIGHTS)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out,
                 "--seed", "4242"]) == 0
    saved = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert saved["config"]["seed"] == 4242


def test_cli_thread_env_fallback(tmp_path, monkeypatch):
    cfg_path = _write_cfg(tmp_path, TINY_WEIGHTS)
    monkeypatch.setenv("BM_THREADS", "2")
    out = str(tmp_path / "env_out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    monkeypatch.setenv("BM_THREADS", "not_a_number")
    assert main(["run", "--config", cfg_path,
                 "--out", str(tmp_path / "env_bad")]) == 2
    monkeypatch.setenv("BM_THREADS", "0")
    assert main(["run", "--config", cfg_path,
                 "--out", str(tmp_path / "env_zero")]) == 2
    assert main(["run", "--config", cfg_path, "--threads", "0",
                 "--out", str(tmp_path / "flag_zero")]) == 2
    assert not (tmp_path / "env_zero").exists()
    assert not (tmp_path / "flag_zero").exists()


def test_cli_bad_config_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2
    not_json = tmp_path / "garbage.json"
    not_json.write_text("{ not json")
    assert main(["run", "--config", str(not_json),
                 "--out", str(tmp_path / "o2")]) == 2


def test_cli_version_mismatch_exit_code(tmp_path):
    cfg_path = _write_cfg(tmp_path, TINY_WEIGHTS)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg_path, "--out", out]) == 0
    p = tmp_path / "out" / "summary.json"
    doc = json.loads(p.read_text())
    doc["version"] = "0.0.1"
    p.write_text(json.dumps(doc))
    assert main(["replay", "--config", str(p),
                 "--out", str(tmp_path / "redo")]) == 1


@pytest.mark.parametrize("content", [
    None, "{ not json", "[1, 2]", json.dumps({"version": __version__})],
    ids=["missing", "invalid_json", "list", "no_config"])
def test_cli_replay_of_a_bad_summary_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "summary.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "redo"
    assert main(["replay", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(path) in err and "builtin" not in err


@pytest.mark.parametrize("content", [b"[1, 2]", None, b"\xff"],
                         ids=["list", "directory", "binary"])
@pytest.mark.parametrize("verb", ["run", "validate"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, verb, content):
    path = tmp_path / "cfg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    extra = ["--seed", "1", "--out", str(tmp_path / "o")] if verb == "run" else []
    assert main([verb, "--config", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and "Traceback" not in err


def test_digests_are_the_sha256_of_the_files_written(tmp_path):
    for doc in (TINY_CAP, TINY_WEIGHTS, TINY_JUMP):
        out = tmp_path / doc["name"]
        summary = run_scenario(parse_config(copy.deepcopy(doc)), str(out))
        assert set(summary["digests"]) == set(os.listdir(out)) - {"summary.json"}
        for name, digest in summary["digests"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


def test_schema_matches_the_parser():
    jsonschema = pytest.importorskip("jsonschema")
    path = os.path.join(os.path.dirname(__file__), "..", "docs",
                        "scenario_schema.json")
    with open(path) as fh:
        schema = json.load(fh)
    jsonschema.Draft7Validator.check_schema(schema)
    validator = jsonschema.Draft7Validator(schema)
    for name in BUILTINS:
        ref = {"builtin": name}
        assert not list(validator.iter_errors(ref)), name
        assert not list(validator.iter_errors(parse_config(ref).resolved)), name
    # without a builtin the name, model, grid, ensemble size and seed are
    # required, as the parser requires them
    missing = {err.message for err in validator.iter_errors({})}
    assert missing == {f"'{key}' is a required property"
                       for key in ("name", "model", "grid", "n_paths", "seed")}
    for key in ("name", "model"):
        doc = copy.deepcopy(TINY_CAP)
        del doc[key]
        assert list(validator.iter_errors(doc)), key
        with pytest.raises(ConfigParseError, match=f"^{key}: "):
            parse_config(doc)
    props = schema["properties"]
    assert set(props) == _TOP_KEYS
    assert set(props["diagnostics"]["properties"]) == set(_DEFAULT_DIAGNOSTICS)
    assert set(props["thresholds"]["properties"]) == set(_DEFAULT_THRESHOLDS)


def test_python_dash_m_runs_without_runtime_warning(tmp_path):
    src = os.path.dirname(os.path.dirname(balmarkets.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    bad = _write_cfg(tmp_path, {"model": "continuous"}, "bad.json")
    # the verbs README promises, and the exit code of a config error
    for verb, code, said in ((["list"], 0, "perfect_balance_demo"),
                             (["validate", "--config", "example_7_2"], 0,
                              "OK: example_7_2"),
                             (["validate", "--config", bad], 2, "")):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "balmarkets",
             *verb], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, (verb, done.stderr)
        assert said in done.stdout
    assert done.stderr.startswith("config error: ")


_RUN_AND_LIST_SCIPY = """
import json, sys, tempfile
from balmarkets.scenario_cli import parse_config, run_scenario
for doc in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as out:
        run_scenario(parse_config(doc), out)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_singular_covariance_runs_never_import_scipy():
    """diag(0, 1) and the death example's zero covariance take the pivoted
    factor, which is numpy only."""
    docs = [
        {"builtin": "sec6_case_critical", "n_paths": 20,
         "grid": {"T": 2.0, "dt": 0.01}, "store_every": 10,
         "diagnostics": {"limiting_distribution": False}},
        {"builtin": "example_7_2", "n_paths": 64,
         "grid": {"T": 1.5, "dt": 1e-3}, "store_every": 10},
    ]
    src = os.path.dirname(os.path.dirname(balmarkets.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY, json.dumps(docs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


# ---------------------------------------------------------------------------
# one field table behind the parser and the schema

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs",
                           "scenario_schema.json")

TINY_TABLE_JUMP = dict(
    TINY_JUMP, name="tiny-table-jump",
    jump=dict(TINY_JUMP["jump"],
              intensity={"times": [0.0, 0.3], "values": [1.0, 0.5]}))

NAN, INF = float("nan"), float("inf")

# the benchmark's workload documents, as perfbench/run.py builds them
_BENCH_DOCS = [
    {"builtin": "sec6_case_critical", "grid": {"T": 100.0, "dt": 0.01}},
    {"builtin": "perfect_balance_demo", "n_paths": 1000},
    {"builtin": "example_7_2", "n_paths": 2048, "grid": {"T": 1.5, "dt": 1e-3},
     "store_every": 10},
]


@pytest.mark.parametrize("horizon,n_paths,count",
                         [(1e308, 3, "inf"), (1e8, 12, "1.2e+09")])
def test_jump_candidates_are_bounded(tmp_path, horizon, n_paths, count):
    # the thinning sampler draws about n_paths * lam_max * T candidates: a
    # run past the bound would not end, so the parser refuses it
    doc = dict(copy.deepcopy(TINY_JUMP), grid={"T": horizon, "dt": horizon / 10},
               n_paths=n_paths)
    with pytest.raises(ConfigParseError,
                       match=rf"^jump\.intensity: .* = {re.escape(count)} expected"):
        parse_config(copy.deepcopy(doc))
    cfg = _write_cfg(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("doc, grid, count", [
    (TINY_CAP, {"T": 1e12, "dt": 1e-3}, "n_paths * T / dt = 2e+16 path-steps"),
    (TINY_WEIGHTS, {"T": 1e12, "dt": 1e-3},
     "n_paths * T / dt = 1.5e+16 path-steps"),
    (dict(TINY_WEIGHTS, n_paths=1000, store_every=1), {"T": 1e3, "dt": 1e-3},
     "n_paths * stored steps * d = 2e+09 values"),
    # past the float range, before the thinning candidates are counted
    (dict(TINY_JUMP, n_paths=10**400), TINY_JUMP["grid"],
     "n_paths * T / dt = inf path-steps"),
], ids=["cap-steps", "weights-steps", "weights-values", "jump-paths-huge"])
def test_grid_work_and_output_are_bounded(tmp_path, doc, grid, count):
    # a run past either bound would exhaust memory before its first output
    doc = dict(copy.deepcopy(doc), grid=grid)
    with pytest.raises(ConfigParseError, match=f"^grid: {re.escape(count)}"):
        parse_config(copy.deepcopy(doc))
    cfg = _write_cfg(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_every_shipped_document_is_within_the_bounds():
    for doc in [*BUILTINS.values(), *_BENCH_DOCS, TINY_CAP, TINY_WEIGHTS,
                TINY_JUMP, TINY_TABLE_JUMP]:
        _cfg(doc)


def _put(doc, path, value):
    """Set the dotted ``path`` of ``doc``, making missing sections."""
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[key] = value


@pytest.mark.parametrize("doc,path,value,where", [
    pytest.param(TINY_CAP, "grid.T", NAN, "grid.T", id="T-nan"),
    pytest.param(TINY_CAP, "grid.T", INF, "grid.T", id="T-inf"),
    pytest.param(TINY_CAP, "grid.dt", 10**400, "grid.dt", id="dt-huge-int"),
    pytest.param(TINY_JUMP, "jump.intensity", {"times": [], "values": []},
                 "jump.intensity.times", id="intensity-no-knots"),
    pytest.param(TINY_WEIGHTS, "market.kappa0", [0.6, NAN], "market.kappa0",
                 id="kappa0-nan"),
    pytest.param(TINY_WEIGHTS, "market.r", NAN, "market.r", id="r-nan"),
    pytest.param(TINY_WEIGHTS, "market.c", [[0.04, NAN], [NAN, 0.09]],
                 "market.c", id="c-nan"),
    pytest.param(TINY_CAP, "market.a", [0.0, INF], "market.a", id="a-inf"),
    pytest.param(TINY_JUMP, "jump.atoms", [[NAN, -0.1]], "jump.atoms",
                 id="atoms-nan"),
    pytest.param(TINY_JUMP, "jump.probs", [NAN], "jump.probs", id="probs-nan"),
    pytest.param(TINY_JUMP, "jump.intensity", NAN, "jump.intensity",
                 id="intensity-nan"),
    pytest.param(TINY_TABLE_JUMP, "jump.intensity.values", [1.0, NAN],
                 "jump.intensity.values", id="intensity-values-nan"),
    pytest.param(TINY_CAP, "thresholds.eps_slope", NAN, "thresholds.eps_slope",
                 id="threshold-nan"),
])
def test_non_finite_and_empty_input_is_a_config_error(tmp_path, doc, path,
                                                      value, where):
    # Python's json reads NaN and Infinity; the parser must not pass them on
    doc = copy.deepcopy(doc)
    _put(doc, path, value)
    with pytest.raises(ConfigParseError, match=f"^{re.escape(where)}: "):
        parse_config(copy.deepcopy(doc))
    assert main(["validate", "--config", _write_cfg(tmp_path, doc)]) == 2


@pytest.mark.parametrize("doc,path,value,where", [
    pytest.param(TINY_WEIGHTS, "market.kappa0", ["0.5", 0.3, 0.2],
                 "market.kappa0[0]", id="kappa0-string"),
    pytest.param(TINY_WEIGHTS, "market.kappa0", [0.6, True, 0.4],
                 "market.kappa0[1]", id="kappa0-bool"),
    pytest.param(TINY_WEIGHTS, "market.c", [[0.04, 0.0], ["0.0", 0.09]],
                 "market.c[1][0]", id="c-string"),
    pytest.param(TINY_CAP, "market.s0", [True, False], "market.s0[0]",
                 id="s0-bools"),
    pytest.param(TINY_CAP, "market.a", [0.0, ["0.1"]], "market.a[1][0]",
                 id="a-nested"),
    pytest.param(TINY_JUMP, "jump.atoms", [[0.1, "-0.1"]], "jump.atoms[0][1]",
                 id="atoms-string"),
    pytest.param(TINY_TABLE_JUMP, "jump.intensity.values", [1.0, False],
                 "jump.intensity.values[1]", id="intensity-values-bool"),
    pytest.param(TINY_JUMP, "jump.probs", [None], "jump.probs[0]",
                 id="probs-null"),
])
def test_vector_entries_must_be_numbers(tmp_path, doc, path, value, where):
    # numpy would convert numeric strings and booleans; the schema does not
    doc = copy.deepcopy(doc)
    _put(doc, path, value)
    with pytest.raises(ConfigParseError,
                       match=f"^{re.escape(where)}: expected a number, got "):
        parse_config(copy.deepcopy(doc))
    assert main(["validate", "--config", _write_cfg(tmp_path, doc)]) == 2
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_PATH) as fh:
        assert list(jsonschema.Draft7Validator(json.load(fh)).iter_errors(doc))


@pytest.mark.parametrize("c", [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["asymmetric", "indefinite"])
def test_validate_rejects_a_covariance_that_run_rejects(tmp_path, c):
    for base in (TINY_CAP, TINY_WEIGHTS):
        doc = copy.deepcopy(base)
        doc["market"]["c"] = c
        with pytest.raises(ConfigParseError, match="^market.c: "):
            parse_config(copy.deepcopy(doc))
        assert main(["validate", "--config", _write_cfg(tmp_path, doc)]) == 2
    # the engines keep their own checks for library callers
    grid = PathGrid(dt=0.01, n_steps=2)
    with pytest.raises((AsymmetricCovariance, NegativeEigenvalue)):
        simulate_capitalizations(
            MarketParams.from_constants([0.0, 0.0], c, 0.0, [1.0, 1.0]),
            grid, 2, 0)
    with pytest.raises((AsymmetricCovariance, IndefiniteMatrix)):
        simulate_relative_caps_balanced(
            ProcessSpec.constant(np.array(c)), np.array([0.6, 0.4]), grid, 2, 0)


def test_validate_rejects_a_singular_covariance_that_run_rejects(tmp_path):
    # the bank-rate ratio inverts c: with lln on, both commands stop at
    # market.c before anything is written
    doc = {"builtin": "perfect_balance_demo", "n_paths": 3,
           "grid": {"T": 0.01, "dt": 0.001},
           "market": {"c": [[0.1, 0.1, 0.0], [0.1, 0.1, 0.0], [0.0, 0.0, 0.1]],
                      "kappa0": [0.3, 0.3, 0.4], "r": 0.0}}
    with pytest.raises(ConfigParseError, match="^market.c: .*singular"):
        parse_config(copy.deepcopy(doc))
    cfg = _write_cfg(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    # without the ratio the same market runs
    doc["diagnostics"] = {"lln": False}
    assert _cfg(doc).resolved["market"]["c"][0] == [0.1, 0.1, 0.0]


def test_validate_rejects_a_zero_weight_that_run_rejects(tmp_path):
    # the balanced-weights engine starts in the open simplex
    doc = copy.deepcopy(TINY_WEIGHTS)
    doc["market"]["kappa0"] = [1.0, 0.0]
    with pytest.raises(ConfigParseError, match="^market.kappa0: must be positive"):
        parse_config(copy.deepcopy(doc))
    assert main(["validate", "--config", _write_cfg(tmp_path, doc)]) == 2
    # a jump scenario may start with a dead company
    doc = copy.deepcopy(TINY_JUMP)
    doc["market"]["kappa0"] = [1.0, 0.0]
    assert _cfg(doc).resolved["market"]["kappa0"] == [1.0, 0.0]
    assert main(["validate", "--config", _write_cfg(tmp_path, doc)]) == 0


def test_a_weight_far_below_the_death_threshold_is_alive(tmp_path):
    # strong diffusion takes company 2's weight far below DEATH_THRESHOLD,
    # but no jump law acts (max_jumps 0), so no company has a death time;
    # the distance takes the path, by the death times paths.csv prints
    doc = {"name": "f", "model": "jump",
           "market": {"c": [[4, 0], [0, 4]], "r": 0, "kappa0": [0.5, 0.5]},
           "jump": {"intensity": 1, "atoms": [[0.1, -0.1]], "probs": [1],
                    "max_jumps": 0},
           "grid": {"T": 8, "dt": 0.1}, "n_paths": 1, "seed": 1,
           "store_every": 5, "diagnostics": {"limiting_distribution": False}}
    cfg, out = _write_cfg(tmp_path, doc), tmp_path / "out"
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "paths.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert min(float(row["kappa_2"]) for row in rows) < 1e-12
    assert {row[f"zeta_{i}"] for row in rows for i in (1, 2)} == {"inf"}
    dist = json.loads((out / "distances.json").read_text())
    assert dist["path_index"] == 0 and dist["values"][0][1] > 0.0


_ROUND_TRIP_DOCS = [BUILTINS[name] for name in BUILTINS] + [
    TINY_CAP, TINY_WEIGHTS, TINY_JUMP]


@pytest.mark.parametrize("doc", _ROUND_TRIP_DOCS, ids=lambda d: d["name"])
def test_resolved_config_parses_to_itself(doc):
    # replay parses the summary's config block
    resolved = _cfg(doc).resolved
    assert parse_config(copy.deepcopy(resolved)).resolved == resolved


_BAD_NUMBERS = st.sampled_from([NAN, INF, -INF, 10**400])
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.integers(-3, 3),
    st.floats(), _BAD_NUMBERS, st.lists(st.floats(), max_size=2),
    st.dictionaries(st.sampled_from(["times", "values", "bogus"]),
                    st.lists(st.floats(), max_size=2), max_size=3))


def _bad_values(field):
    """Values of the wrong type, out of range, non-finite, empty, ragged or
    with an extra key, for one field of the table."""
    low = 0 if field.minimum is None else field.minimum
    number = st.one_of(st.sampled_from([low - 1, low - 0.5, low, 0.5]),
                       _BAD_NUMBERS)
    if field.kind == "vector":
        special = st.one_of(st.lists(number, max_size=3), st.just([0.5, [0.5]]))
    elif field.kind == "matrix":
        special = st.one_of(st.lists(st.lists(number, max_size=3), max_size=2),
                            st.just([[0.5], [0.5, 0.5]]))
    elif "section" in field.kind:
        special = st.sampled_from([{}, {"bogus": 1}, {"times": [], "values": []}])
    else:
        special = number
    return st.one_of(_ANY_VALUE, special)


def _fuzzed_doc(field, data):
    """A test document with ``field`` set to one of its bad values."""
    docs = ([TINY_JUMP, TINY_TABLE_JUMP] if field.path.startswith("jump")
            else _ROUND_TRIP_DOCS + [TINY_TABLE_JUMP])
    doc = copy.deepcopy(data.draw(st.sampled_from(docs)))
    _put(doc, field.path, data.draw(_bad_values(field)))
    return doc


# keys that the intensity's peak and the size of c now fix: any value of one
# must still be a config error, never a crash
_RETIRED_FIELDS = (_Field("jump.lam_max", "number", ""),
                   _Field("market.d", "integer", ""))


@pytest.mark.parametrize("field", _FIELDS + _RETIRED_FIELDS, ids=lambda f: f.path)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_parse_config_raises_only_config_errors(field, data):
    try:
        cfg = parse_config(_fuzzed_doc(field, data))
    except ConfigParseError:
        return
    # what is accepted is finite and replays to itself
    resolved = json.loads(json.dumps(cfg.resolved, allow_nan=False))
    assert parse_config(resolved).resolved == cfg.resolved


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.path)
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_what_validate_accepts_run_runs(field, data):
    try:
        cfg = parse_config(_fuzzed_doc(field, data))
    except ConfigParseError:
        return
    # a few paths and steps: what runs is under test, not how long it takes
    steps = min(cfg.n_steps, 20)
    small = parse_config(dict(copy.deepcopy(cfg.resolved), n_paths=min(cfg.n_paths, 4),
                              grid={"T": cfg.grid.dt * steps, "dt": cfg.grid.dt}))
    assert small.n_steps == steps
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario(small, out)
        except BalmarketsError as err:  # a runtime failure, never a config one
            assert not isinstance(err, ConfigParseError)


def test_one_table_drives_parser_and_schema(monkeypatch):
    field = _SECTIONS[""]["n_paths"]
    monkeypatch.setitem(_SECTIONS[""], "n_paths", field._replace(minimum=5))
    with pytest.raises(ConfigParseError, match="^n_paths: must be at least 5$"):
        parse_config(dict(copy.deepcopy(TINY_CAP), n_paths=3))
    assert _cfg(dict(TINY_CAP, n_paths=5)).n_paths == 5
    assert scenario_schema()["properties"]["n_paths"]["minimum"] == 5


def test_schema_file_is_generated_from_the_table():
    with open(SCHEMA_PATH) as fh:
        on_disk = fh.read()
    assert on_disk == json.dumps(scenario_schema(), indent=2) + "\n", (
        "docs/scenario_schema.json differs from scenario_schema(); regenerate "
        "it with: PYTHONPATH=src python -c 'import json; from "
        "balmarkets.scenario_cli import scenario_schema; "
        "print(json.dumps(scenario_schema(), indent=2))' "
        "> docs/scenario_schema.json")
