"""Configuration-driven scenario runner and command line entry point.

A scenario is a single JSON document naming a market model, a time grid,
an ensemble size, and a set of diagnostics to run on the simulated paths.
``run_scenario`` executes one scenario and writes its outputs (path CSV,
diagnostic JSON, summary) into a directory; the ``balmarkets`` console
command (or ``python -m balmarkets``) wraps this with ``run``, ``list``,
``validate``, and ``replay`` verbs.  Every writer returns the sha256 of
the bytes it wrote, which the summary records.  Replaying a stored summary reproduces every CSV byte for byte as
long as the package version matches, independent of the thread count.

Builtin scenarios cover the stock examples: the two-company flight-to-one
markets at three drift levels, the deterministic jump market with a known
extinction time, and a three-company balanced market whose weights are
martingales.  A builtin name can be used anywhere a config path can.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .balance_diag import (
    DEFAULT_ATOM_EPS,
    DEFAULT_DISTANCE_THRESHOLD,
    DEFAULT_EPS_SLOPE,
    DEFAULT_INDETERMINATE_CAP,
    DEFAULT_L_CAP,
    BalanceReport,
    DistanceMatrix,
    bank_rate_statistic,
    distance_matrix,
    equivalence_classes,
    limiting_distribution,
    limiting_to_csv,
    lln_diagnostic,
    loss_of_balance,
)
from .errors import BalmarketsError, ConfigParseError, VersionMismatch
from .growth_opt import implied_interest_rate
from .jump_markets import (
    JumpSpec,
    example_death_of_company,
    jump_pathset_to_csv,
    loss_of_balance_jump,
    pairwise_distance_jump,
    simulate_jump_balanced,
)
from .market_model import MarketParams, PathGrid, ProcessSpec
from .sde_engine import (
    PathSet,
    _write_hashed,
    pathset_summary,
    pathset_to_csv,
    simulate_capitalizations,
    simulate_relative_caps_balanced,
)

_DEFAULT_DIAGNOSTICS = {
    "balance": True,
    "segregation": True,
    "limiting_distribution": True,
    "lln": False,
}

_DEFAULT_THRESHOLDS = {
    "eps_slope": DEFAULT_EPS_SLOPE,
    "L_cap": DEFAULT_L_CAP,
    "d_threshold": DEFAULT_DISTANCE_THRESHOLD,
    "atom_eps": DEFAULT_ATOM_EPS,
    "indeterminate_cap": DEFAULT_INDETERMINATE_CAP,
}

_TOP_KEYS = {
    "name", "description", "builtin", "model", "example", "market", "jump",
    "grid", "n_paths", "seed", "store_every", "output_dir", "diagnostics",
    "thresholds",
}

BUILTINS: dict[str, dict] = {
    "sec6_case_a0": {
        "model": "continuous",
        "market": {
            "a": [0.0, 0.0],
            "c": [[0.0, 0.0], [0.0, 1.0]],
            "r": 0.0,
            "s0": [1.0, 1.0],
        },
        "grid": {"T": 100.0, "dt": 0.01},
        "n_paths": 10000,
        "seed": 60,
        "store_every": 100,
        "description": "two companies, one noisy with no drift advantage; "
                       "the noisy one fades and the market concentrates",
    },
    "sec6_case_band": {
        "model": "continuous",
        "market": {
            "a": [0.0, 0.25],
            "c": [[0.0, 0.0], [0.0, 1.0]],
            "r": 0.0,
            "s0": [1.0, 1.0],
        },
        "grid": {"T": 100.0, "dt": 0.01},
        "n_paths": 10000,
        "seed": 61,
        "store_every": 100,
        "description": "drift advantage below half the variance; the "
                       "outcome is still one-sided",
    },
    "sec6_case_critical": {
        "model": "continuous",
        "market": {
            "a": [0.0, 0.5],
            "c": [[0.0, 0.0], [0.0, 1.0]],
            "r": 0.0,
            "s0": [1.0, 1.0],
        },
        "grid": {"T": 1000.0, "dt": 0.01},
        "n_paths": 1000,
        "seed": 62,
        "store_every": 100,
        "description": "drift advantage exactly half the variance; weights "
                       "wander between the extremes forever",
    },
    "example_7_2": {
        "model": "jump",
        "example": "death_of_company",
        "grid": {"T": 1.5, "dt": 1e-4},
        "n_paths": 10000,
        "seed": 63,
        "store_every": 100,
        "description": "no noise, one compensated rescue jump; a quarter of "
                       "paths lose a company at a known time",
    },
    "perfect_balance_demo": {
        "model": "continuous",
        "market": {
            "c": [[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]],
            "r": 0.03,
            "kappa0": [0.5, 0.3, 0.2],
        },
        "grid": {"T": 1.0, "dt": 1e-3},
        "n_paths": 10000,
        "seed": 64,
        "store_every": 10,
        "diagnostics": {"limiting_distribution": False, "lln": True},
        "description": "three companies whose drift tracks the balance "
                       "condition; weights are martingales and no loss "
                       "accrues",
    },
}

for _key, _val in BUILTINS.items():
    _val.setdefault("name", _key)
del _key, _val


# ---------------------------------------------------------------------------
# config parsing


@dataclasses.dataclass
class ScenarioConfig:
    """A fully validated scenario, plus its canonical JSON form."""

    name: str
    model: str
    engine: str
    d: int
    market: dict | None
    jump: dict | None
    example: str | None
    grid_T: float
    grid_dt: float
    n_steps: int
    n_paths: int
    seed: int
    store_every: int
    diagnostics: dict
    thresholds: dict
    output_dir: str | None
    resolved: dict


def _fail(path: str, msg: str):
    raise ConfigParseError(f"{path}: {msg}")


def _as_number(val, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(path, f"expected a number, got {val!r}")
    return float(val)


def _as_int(val, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(path, f"expected an integer, got {val!r}")
    return int(val)


def _as_vector(val, path: str, length: int | None = None) -> np.ndarray:
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a list of numbers")
    if arr.ndim != 1:
        _fail(path, f"expected a flat list, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        _fail(path, f"expected length {length}, got {arr.shape[0]}")
    return arr


def _as_matrix(val, path: str) -> np.ndarray:
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a list of rows of numbers")
    if arr.ndim != 2:
        _fail(path, f"expected a matrix, got shape {arr.shape}")
    return arr


def _merged_section(base: dict, builtin: dict | None, user: dict | None,
                    section: str) -> dict:
    out = dict(base)
    for layer in (builtin, user):
        if layer is None:
            continue
        if not isinstance(layer, dict):
            _fail(section, "expected an object")
        for key, val in layer.items():
            if key not in base:
                known = ", ".join(sorted(base))
                _fail(f"{section}.{key}", f"unknown key (known: {known})")
            out[key] = val
    return out


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a scenario document and resolve any builtin reference.

    Raises :class:`ConfigParseError` with the offending key path on any
    problem.  Top-level keys in the document override the builtin's
    values wholesale, except ``diagnostics`` and ``thresholds`` where
    individual entries merge.
    """
    if not isinstance(doc, dict):
        raise ConfigParseError("config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown top-level key")

    base: dict = {}
    if "builtin" in doc:
        tag = doc["builtin"]
        if tag not in BUILTINS:
            _fail("builtin", f"unknown builtin {tag!r} "
                             f"(known: {', '.join(sorted(BUILTINS))})")
        base = copy.deepcopy(BUILTINS[tag])
    merged = dict(base)
    for key, val in doc.items():
        if key in ("builtin", "diagnostics", "thresholds"):
            continue
        merged[key] = val

    diagnostics = _merged_section(
        _DEFAULT_DIAGNOSTICS, base.get("diagnostics"), doc.get("diagnostics"),
        "diagnostics",
    )
    for key, val in diagnostics.items():
        if not isinstance(val, bool):
            _fail(f"diagnostics.{key}", f"expected true or false, got {val!r}")
    thresholds = _merged_section(
        _DEFAULT_THRESHOLDS, base.get("thresholds"), doc.get("thresholds"),
        "thresholds",
    )
    for key in ("eps_slope", "L_cap", "d_threshold", "atom_eps",
                "indeterminate_cap"):
        thresholds[key] = _as_number(thresholds[key], f"thresholds.{key}")

    if "name" not in merged:
        _fail("name", "required (a builtin reference supplies one)")
    name = merged["name"]
    if not isinstance(name, str) or not name:
        _fail("name", "expected a nonempty string")

    model = merged.get("model")
    if model not in ("continuous", "jump"):
        _fail("model", f"expected 'continuous' or 'jump', got {model!r}")

    grid = merged.get("grid")
    if not isinstance(grid, dict):
        _fail("grid", "required object with keys T and dt")
    for key in grid:
        if key not in ("T", "dt"):
            _fail(f"grid.{key}", "unknown key (known: T, dt)")
    horizon = _as_number(grid.get("T"), "grid.T")
    dt = _as_number(grid.get("dt"), "grid.dt")
    if horizon <= 0.0:
        _fail("grid.T", "must be positive")
    if dt <= 0.0:
        _fail("grid.dt", "must be positive")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-8 * max(1.0, horizon):
        _fail("grid.dt", f"horizon {horizon} is not a whole number of steps "
                         f"of {dt}")

    n_paths = _as_int(merged.get("n_paths"), "n_paths")
    if n_paths < 1:
        _fail("n_paths", "must be at least 1")
    seed = _as_int(merged.get("seed"), "seed")
    if seed < 0:
        _fail("seed", "must be nonnegative")
    store_every = _as_int(merged.get("store_every", 1), "store_every")
    if store_every < 1:
        _fail("store_every", "must be at least 1")

    output_dir = merged.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        _fail("output_dir", "expected a string")

    example = merged.get("example")
    market_cfg: dict | None = None
    jump_cfg: dict | None = None

    if example is not None:
        if example != "death_of_company":
            _fail("example", f"unknown example {example!r} "
                             "(known: death_of_company)")
        if model != "jump":
            _fail("model", "the death_of_company example is a jump model")
        if merged.get("market") is not None or merged.get("jump") is not None:
            _fail("example", "an example scenario defines its own market; "
                             "drop the market/jump sections")
        engine = "jump_example"
        d = 2
    else:
        market = merged.get("market")
        if not isinstance(market, dict):
            _fail("market", "required object")
        for key in market:
            if key not in ("a", "c", "r", "s0", "kappa0", "d"):
                _fail(f"market.{key}",
                      "unknown key (known: a, c, r, s0, kappa0, d)")
        c = _as_matrix(market.get("c"), "market.c")
        if c.shape[0] != c.shape[1]:
            _fail("market.c", f"must be square, got shape {c.shape}")
        d = c.shape[0]
        if "d" in market and _as_int(market["d"], "market.d") != d:
            _fail("market.d", f"does not match the {d}x{d} covariance")
        if d < 2:
            _fail("market.c", "a market needs at least two companies")
        r = _as_number(market.get("r", 0.0), "market.r")
        market_cfg = {"c": c.tolist(), "r": r}

        if "a" in market:
            a = _as_vector(market["a"], "market.a", d)
            if "kappa0" in market:
                _fail("market.kappa0", "belongs to the balanced-weights "
                      "model; initial capitalizations go in market.s0")
            s0 = _as_vector(market.get("s0"), "market.s0", d)
            if np.any(s0 <= 0.0):
                _fail("market.s0", "initial capitalizations must be positive")
            market_cfg["a"] = a.tolist()
            market_cfg["s0"] = s0.tolist()
            engine = "capitalizations"
        else:
            if "s0" in market:
                _fail("market.s0", "belongs to the capitalization model; "
                      "balanced-weights scenarios start from market.kappa0")
            k0 = _as_vector(market.get("kappa0"), "market.kappa0", d)
            if np.any(k0 < 0.0) or abs(float(k0.sum()) - 1.0) > 1e-9:
                _fail("market.kappa0",
                      "must be nonnegative and sum to one")
            market_cfg["kappa0"] = k0.tolist()
            engine = "balanced_weights"

        if model == "jump":
            if engine != "balanced_weights":
                _fail("market.a", "jump scenarios evolve weights directly; "
                      "drop market.a and give market.kappa0")
            engine = "jump"
            jump = merged.get("jump")
            if not isinstance(jump, dict):
                _fail("jump", "required object for a jump model")
            for key in jump:
                if key not in ("intensity", "lam_max", "atoms", "probs",
                               "max_jumps"):
                    _fail(f"jump.{key}", "unknown key (known: intensity, "
                          "lam_max, atoms, probs, max_jumps)")
            inten = jump.get("intensity")
            if isinstance(inten, dict):
                for key in inten:
                    if key not in ("times", "values"):
                        _fail(f"jump.intensity.{key}",
                              "unknown key (known: times, values)")
                tt = _as_vector(inten.get("times"), "jump.intensity.times")
                tv = _as_vector(inten.get("values"), "jump.intensity.values",
                                tt.shape[0])
                if np.any(np.diff(tt) <= 0.0):
                    _fail("jump.intensity.times", "must be increasing")
                if np.any(tv < 0.0):
                    _fail("jump.intensity.values", "must be nonnegative")
                inten_cfg = {"times": tt.tolist(), "values": tv.tolist()}
                lam_peak = float(tv.max())
            else:
                lam_peak = _as_number(inten, "jump.intensity")
                if lam_peak < 0.0:
                    _fail("jump.intensity", "must be nonnegative")
                inten_cfg = lam_peak
            lam_max = _as_number(jump.get("lam_max", lam_peak),
                                 "jump.lam_max")
            if lam_max < lam_peak:
                _fail("jump.lam_max", "below the intensity's peak")
            atoms = _as_matrix(jump.get("atoms"), "jump.atoms")
            if atoms.shape[1] != d:
                _fail("jump.atoms", f"each jump size needs {d} coordinates, "
                                    f"got {atoms.shape[1]}")
            if np.any(atoms < -1.0):
                _fail("jump.atoms", "relative jump sizes must be >= -1")
            probs = _as_vector(jump.get("probs"), "jump.probs",
                               atoms.shape[0])
            if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > 1e-9:
                _fail("jump.probs", "must be nonnegative and sum to one")
            jump_cfg = {
                "intensity": inten_cfg,
                "lam_max": lam_max,
                "atoms": atoms.tolist(),
                "probs": probs.tolist(),
            }
            if jump.get("max_jumps") is not None:
                mj = _as_int(jump["max_jumps"], "jump.max_jumps")
                if mj < 0:
                    _fail("jump.max_jumps", "must be nonnegative")
                jump_cfg["max_jumps"] = mj
        elif merged.get("jump") is not None:
            _fail("jump", "only meaningful when model is 'jump'")

    resolved: dict = {
        "name": name,
        "model": model,
        "grid": {"T": horizon, "dt": dt},
        "n_paths": n_paths,
        "seed": seed,
        "store_every": store_every,
        "diagnostics": dict(diagnostics),
        "thresholds": dict(thresholds),
    }
    if example is not None:
        resolved["example"] = example
    if market_cfg is not None:
        resolved["market"] = market_cfg
    if jump_cfg is not None:
        resolved["jump"] = jump_cfg

    return ScenarioConfig(
        name=name,
        model=model,
        engine=engine,
        d=d,
        market=market_cfg,
        jump=jump_cfg,
        example=example,
        grid_T=horizon,
        grid_dt=dt,
        n_steps=n_steps,
        n_paths=n_paths,
        seed=seed,
        store_every=store_every,
        diagnostics=diagnostics,
        thresholds=thresholds,
        output_dir=output_dir,
        resolved=resolved,
    )


# ---------------------------------------------------------------------------
# running


def _jump_spec_from_config(jcfg: dict) -> JumpSpec:
    inten = jcfg["intensity"]
    if isinstance(inten, dict):
        spec = ProcessSpec.time_table(inten["times"], inten["values"])
    else:
        spec = ProcessSpec.constant(float(inten))
    return JumpSpec.finite_atoms(
        spec,
        lam_max=float(jcfg["lam_max"]),
        atoms=np.asarray(jcfg["atoms"], dtype=float),
        probs=np.asarray(jcfg["probs"], dtype=float),
        max_jumps=jcfg.get("max_jumps"),
    )


def _whole_market_path(ps: PathSet) -> int | None:
    alive = (ps.kappa[:, -1] > 0.0).all(axis=1)
    hits = np.flatnonzero(alive)
    return int(hits[0]) if hits.size else None


def _sanitize(obj):
    """Make a summary JSON-safe: plain types, no NaN or infinity."""
    if isinstance(obj, dict):
        return {key: _sanitize(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if np.isfinite(val) else None
    return obj


def _write_json(path: str, payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    return _write_hashed(path, text + "\n")


def run_scenario(cfg: ScenarioConfig, out_dir: str,
                 n_threads: int = 1) -> dict:
    """Simulate one scenario and write its outputs into ``out_dir``.

    Always writes ``paths.csv`` and ``summary.json``; each enabled
    diagnostic adds its own file (``balance.json``, ``distances.json``,
    ``limiting.csv``).  Returns the summary dictionary, which includes a
    sha256 digest of every file written except the summary itself.
    """
    os.makedirs(out_dir, exist_ok=True)
    started = time.perf_counter()
    grid = PathGrid(dt=cfg.grid_dt, n_steps=cfg.n_steps)
    thresholds = cfg.thresholds
    digests: dict[str, str] = {}
    summary: dict = {
        "version": __version__,
        "name": cfg.name,
        "engine": cfg.engine,
        "seed": cfg.seed,
        "n_threads": n_threads,
        "config": cfg.resolved,
    }

    rec = None
    jump_spec = None
    a_spec = None
    r_spec = None
    if cfg.engine == "jump_example":
        rep = example_death_of_company(
            grid, cfg.n_paths, cfg.seed,
            store_every=cfg.store_every, n_threads=n_threads,
        )
        ps = rep["path_set"]
        rec = rep["lifetimes"]
        jump_spec = rep["jump_spec"]
        summary["example_report"] = {
            key: rep[key]
            for key in (
                "sup_error", "death_time", "death_time_err",
                "expected_death_time", "dying_fraction",
                "expected_dying_fraction", "dying_fraction_se",
                "death_time_spread",
            )
        }
    elif cfg.engine == "jump":
        jump_spec = _jump_spec_from_config(cfg.jump)
        ps, rec = simulate_jump_balanced(
            ProcessSpec.constant(np.asarray(cfg.market["c"], dtype=float)),
            jump_spec,
            np.asarray(cfg.market["kappa0"], dtype=float),
            grid, cfg.n_paths, cfg.seed,
            store_every=cfg.store_every, n_threads=n_threads,
        )
    elif cfg.engine == "capitalizations":
        params = MarketParams.from_constants(
            cfg.market["a"], cfg.market["c"], cfg.market["r"],
            cfg.market["s0"],
        )
        ps = simulate_capitalizations(
            params, grid, cfg.n_paths, cfg.seed,
            store_every=cfg.store_every, n_threads=n_threads,
        )
        a_spec = ps.a_spec
        r_spec = ps.r_spec
    else:
        c0 = np.asarray(cfg.market["c"], dtype=float)
        rate = float(cfg.market["r"])
        ps = simulate_relative_caps_balanced(
            ProcessSpec.constant(c0),
            np.asarray(cfg.market["kappa0"], dtype=float),
            grid, cfg.n_paths, cfg.seed,
            store_every=cfg.store_every, n_threads=n_threads,
        )
        # a_spec stays None: the balanced drift a = c kappa + r 1
        r_spec = ProcessSpec.constant(rate)

    times = ps.times()
    csv_path = os.path.join(out_dir, "paths.csv")
    if rec is not None:
        digests["paths.csv"] = jump_pathset_to_csv(ps, rec, csv_path)
    else:
        digests["paths.csv"] = pathset_to_csv(ps, csv_path)
    summary["paths"] = pathset_summary(ps)

    L_full = None
    if cfg.diagnostics["balance"]:
        eps_slope = thresholds["eps_slope"]
        L_cap = thresholds["L_cap"]
        if jump_spec is not None:
            L_full = loss_of_balance_jump(ps, jump_spec, lifetimes=rec)
            report = BalanceReport.from_loss(times, L_full, eps_slope, L_cap)
        else:
            report = loss_of_balance(
                ps, a_spec, r_spec, eps_slope=eps_slope, L_cap=L_cap,
            )
            L_full = report.L_path
        digests["balance.json"] = report.write_json(
            os.path.join(out_dir, "balance.json"))
        summary["balance"] = report.to_json_dict()
    else:
        summary["balance"] = {"enabled": False}

    if cfg.diagnostics["segregation"]:
        payload = None
        if jump_spec is not None:
            pidx = _whole_market_path(ps)
            if pidx is None:
                payload = {"enabled": False,
                           "reason": "no path kept every company alive to "
                                     "the horizon"}
            else:
                d = ps.kappa.shape[2]
                vals = np.zeros((d, d))
                for i in range(d):
                    for j in range(i + 1, d):
                        vals[i, j] = vals[j, i] = pairwise_distance_jump(
                            ps, i, j, jump_spec,
                            path_index=pidx, lifetimes=rec,
                        )
                D = DistanceMatrix(values=vals, horizon=float(times[-1]))
                payload = D.to_json_dict()
                payload["path_index"] = pidx
        else:
            D = distance_matrix(ps, a_spec, r_spec=r_spec)
            payload = D.to_json_dict()
            payload["path_index"] = 0
        if "values" in payload:
            classes, intransitive = equivalence_classes(
                D, thresholds["d_threshold"])
            payload["d_threshold"] = thresholds["d_threshold"]
            payload["classes"] = classes
            payload["intransitive"] = intransitive
        digests["distances.json"] = _write_json(
            os.path.join(out_dir, "distances.json"), _sanitize(payload))
        summary["segregation"] = payload
    else:
        summary["segregation"] = {"enabled": False}

    if cfg.diagnostics["limiting_distribution"]:
        ld = limiting_distribution(
            ps, thresholds["atom_eps"],
            indeterminate_cap=thresholds["indeterminate_cap"],
        )
        L_term = None if L_full is None else L_full[:, -1]
        digests["limiting.csv"] = limiting_to_csv(
            ld, os.path.join(out_dir, "limiting.csv"), L_terminal=L_term)
        summary["limiting"] = {
            "histogram": dict(ld.histogram),
            "atom_eps": thresholds["atom_eps"],
        }
    else:
        summary["limiting"] = {"enabled": False}

    if cfg.diagnostics["lln"] and cfg.market is None:
        summary["lln"] = {
            "enabled": False,
            "reason": "the example scenario fixes its own coefficients; "
                      "no alternative bank rate to compare",
        }
    elif cfg.diagnostics["lln"]:
        c0 = np.asarray(cfg.market["c"], dtype=float)
        rate = float(cfg.market["r"])
        if r_spec is None:
            r_spec = ProcessSpec.constant(rate)
        if cfg.engine == "capitalizations":
            a0 = np.asarray(cfg.market["a"], dtype=float)
            r_tilde = ProcessSpec.constant(implied_interest_rate(a0, c0))
        else:
            r_tilde = ProcessSpec.state_function(
                lambda t, k: implied_interest_rate(c0 @ k + rate, c0))
        stat = bank_rate_statistic(ps, r_tilde, r_spec, path_index=0)
        ones = np.ones(c0.shape[0])
        normalizer = float(ones @ np.linalg.solve(c0, ones)) * float(
            times[-1] - times[0])
        ratio, collapsed = lln_diagnostic(
            np.array([0.0, stat]), np.array([0.0, normalizer]))
        summary["lln"] = {
            "statistic": stat,
            "normalizer": normalizer,
            "ratio": ratio,
            "collapsed": collapsed,
            "path_index": 0,
        }
    else:
        summary["lln"] = {"enabled": False}

    summary["digests"] = digests
    summary["runtime_seconds"] = round(time.perf_counter() - started, 3)
    summary = _sanitize(summary)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def replay_summary(summary_path: str, out_dir: str,
                   n_threads: int = 1) -> tuple[dict, bool]:
    """Re-run the scenario stored in a summary and compare file digests.

    Raises :class:`VersionMismatch` when the summary was written by a
    different package version; determinism is only promised within one.
    Returns the new summary and whether every digest matched.
    """
    with open(summary_path) as fh:
        prior = json.load(fh)
    stored = prior.get("version")
    if stored != __version__:
        raise VersionMismatch(
            f"summary written by version {stored}, running {__version__}; "
            "byte-level replay is only defined within a version"
        )
    cfg = parse_config(prior["config"])
    summary = run_scenario(cfg, out_dir, n_threads=n_threads)
    old = prior.get("digests", {})
    new = summary["digests"]
    matched = set(old) == set(new) and all(
        old[name] == new[name] for name in old)
    return summary, matched


# ---------------------------------------------------------------------------
# command line


def _resolve_threads(explicit: int | None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise ConfigParseError("--threads must be at least 1")
        return explicit
    env = os.environ.get("BM_THREADS")
    if env:
        try:
            val = int(env)
        except ValueError:
            raise ConfigParseError(
                f"BM_THREADS must be an integer, got {env!r}") from None
        if val < 1:
            raise ConfigParseError("BM_THREADS must be at least 1")
        return val
    return 1


def _load_config_doc(ref: str) -> dict:
    if ref in BUILTINS and not os.path.exists(ref):
        return {"builtin": ref}
    try:
        with open(ref) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigParseError(
            f"{ref!r} is neither a config file nor a builtin name "
            f"(builtins: {', '.join(sorted(BUILTINS))})") from None
    except json.JSONDecodeError as err:
        raise ConfigParseError(f"{ref}: invalid JSON ({err})") from None


def _print_run_summary(summary: dict, out_dir: str) -> None:
    print(f"{summary['name']}: {summary['config']['n_paths']} paths, "
          f"seed {summary['seed']}, "
          f"{summary['runtime_seconds']:.1f}s -> {out_dir}")
    balance = summary["balance"]
    if "classification_counts" in balance:
        print(f"  balance: {balance['classification_counts']}")
    segregation = summary["segregation"]
    if "classes" in segregation:
        print(f"  segregation: classes {segregation['classes']}")
    limiting = summary["limiting"]
    if "histogram" in limiting:
        print(f"  limiting: {limiting['histogram']}")
    lln = summary["lln"]
    if "ratio" in lln:
        print(f"  lln: ratio {lln['ratio']:.3g} "
              f"(collapsed: {lln['collapsed']})")
    if "example_report" in summary:
        rep = summary["example_report"]
        print(f"  example: sup_error {rep['sup_error']:.3g}, "
              f"dying fraction {rep['dying_fraction']:.4f}")
    print(f"  paths.csv sha256 {summary['digests']['paths.csv'][:16]}...")


def _cmd_run(args) -> int:
    doc = _load_config_doc(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    cfg = parse_config(doc)
    out_dir = args.out or cfg.output_dir or os.path.join(
        "balmarkets_out", cfg.name)
    summary = run_scenario(cfg, out_dir,
                           n_threads=_resolve_threads(args.threads))
    _print_run_summary(summary, out_dir)
    return 0


def _cmd_list(args) -> int:
    for name in sorted(BUILTINS):
        spec = BUILTINS[name]
        grid = spec["grid"]
        print(f"{name:22s} {spec['model']:10s} T={grid['T']:<6g} "
              f"n={spec['n_paths']:<6d} {spec['description']}")
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_config(_load_config_doc(args.config))
    print(f"OK: {cfg.name} ({cfg.engine}, {cfg.d} companies, "
          f"T={cfg.grid_T:g}, dt={cfg.grid_dt:g}, "
          f"n_paths={cfg.n_paths}, seed={cfg.seed})")
    return 0


def _cmd_replay(args) -> int:
    out_dir = args.out or args.config + ".replay"
    summary, matched = replay_summary(
        args.config, out_dir, n_threads=_resolve_threads(args.threads))
    _print_run_summary(summary, out_dir)
    if matched:
        print("replay: all file digests match")
        return 0
    print("replay: digests differ from the stored summary", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="balmarkets",
        description="simulate multi-company markets and diagnose whether "
                    "they stay balanced",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--config", required=True,
                       help="scenario JSON file, or a builtin name")
    run_p.add_argument("--out", help="output directory "
                       "(default balmarkets_out/<name>)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--threads", type=int,
                       help="worker threads (default $BM_THREADS or 1)")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list builtin scenarios")
    list_p.set_defaults(func=_cmd_list)

    val_p = sub.add_parser("validate",
                           help="check a config without running it")
    val_p.add_argument("--config", required=True,
                       help="scenario JSON file, or a builtin name")
    val_p.set_defaults(func=_cmd_validate)

    rep_p = sub.add_parser("replay",
                           help="re-run a stored summary and compare digests")
    rep_p.add_argument("--config", required=True,
                       help="summary.json from a previous run")
    rep_p.add_argument("--out", help="output directory "
                       "(default <summary>.replay)")
    rep_p.add_argument("--threads", type=int,
                       help="worker threads (default $BM_THREADS or 1)")
    rep_p.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BalmarketsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
