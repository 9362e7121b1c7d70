"""Configuration-driven scenario runner and command line entry point.

A scenario is a single JSON document naming a market model, a time grid,
an ensemble size, and a set of diagnostics to run on the simulated paths.
``run_scenario`` executes one scenario and writes its outputs (path CSV,
diagnostic JSON, summary) into a directory; the ``balmarkets`` console
command (or ``python -m balmarkets``) wraps this with ``run``, ``list``,
``validate``, and ``replay`` verbs.  Every writer returns the sha256 of
the bytes it wrote, which the summary records.  Replaying a stored summary reproduces every CSV byte for byte as
long as the package version matches, independent of the worker count.

Builtin scenarios cover the stock examples: the two-company flight-to-one
markets at three drift levels, the deterministic jump market with a known
extinction time, and a three-company balanced market whose weights are
martingales.  A builtin name can be used anywhere a config path can.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import json
import math
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
    bank_rate_statistic,
    distance_matrix,
    equivalence_classes,
    limiting_distribution,
    limiting_to_csv,
    lln_diagnostic,
    loss_of_balance,
)
from .errors import (
    BalmarketsError,
    ConfigParseError,
    JumpDomainError,
    JumpLawError,
    VersionMismatch,
)
from .growth_opt import implied_interest_rate
from .jump_markets import (
    _EXAMPLE_MAX_DT,
    JumpSpec,
    LifetimeRecord,
    _checked_kappa0,
    example_death_of_company,
    jump_pathset_to_csv,
    simulate_jump_balanced,
)
from .market_model import (
    MarketParams,
    PathGrid,
    ProcessSpec,
    check_covariance,
    check_invertible,
    validate_params,
)
from .sde_engine import (
    _write_hashed,
    pathset_summary,
    pathset_to_csv,
    simulate_capitalizations,
)

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
#
# _FIELDS describes each scenario field once: key path, JSON kind, description,
# default (_REQUIRED, _OPTIONAL, or a value checked like a given one), lower bound
# on its numbers, allowed values, whether it must be nonempty, and messages where
# the stock ones do not fit.  parse_config walks it; scenario_schema reads it.

_REQUIRED, _OPTIONAL = object(), object()
_Field = collections.namedtuple(
    "_Field", "path kind doc default minimum exclusive enum nonempty expect below",
    defaults=(_OPTIONAL, None, False, (), False, None, None))
_SIMPLEX = "must be nonnegative and sum to one"
# expected thinning candidates, n_paths * peak intensity * T, of a runnable jump
# scenario; path-steps, n_paths * T / dt, of a runnable scenario; and values,
# n_paths * stored steps * d, of one of its output arrays
_MAX_JUMP_CANDIDATES = 1e9
_MAX_PATH_STEPS = 1e11
_MAX_OUTPUT_VALUES = 2**30
_ROOT = _Field("", "section", "One simulation scenario. Keys override a 'builtin' "
               "wholesale, except 'diagnostics' and 'thresholds', which merge per "
               "entry. Numbers must be finite; a null optional key is absent.")
_FIELDS = (
    _Field("name", "string", "Scenario name, default output directory; a builtin "
           "supplies one.", nonempty=True, expect="expected a nonempty string"),
    _Field("description", "string", "Free-form note; ignored by the runner."),
    _Field("builtin", "string", "Builtin scenario that the other keys override.",
           enum=tuple(BUILTINS)),
    _Field("model", "string", "Diffusion only, or jumps too; a builtin supplies "
           "one.", enum=("continuous", "jump"),
           expect="expected 'continuous' or 'jump', got {!r}"),
    _Field("example", "string", "Analytic jump example with its own market; "
           "excludes 'market' and 'jump'.", enum=("death_of_company",)),
    _Field("market", "section", "Market coefficients, required without 'example'. "
           "'a' with 's0' runs the capitalization engine; 'kappa0' without 'a' "
           "the balanced-weights engine.", expect="required object"),
    _Field("market.a", "vector", "Constant drift rate (capitalization engine)."),
    _Field("market.c", "matrix", "Constant d-by-d covariance rate, d >= 2; "
           "symmetric positive semidefinite, eigenvalues down to "
           "-1e-10 (1 + max|c|) counting as zero.", _REQUIRED),
    _Field("market.r", "number", "Constant interest rate.", 0.0),
    _Field("market.s0", "vector", "Initial capitalizations (capitalization engine).",
           minimum=0, exclusive=True, below="initial capitalizations must be positive"),
    _Field("market.kappa0", "vector", "Initial weights, summing to one "
           "(balanced-weights and jump engines); positive for the "
           "balanced-weights engine, nonnegative for the jump engine.",
           minimum=0, below=_SIMPLEX),
    _Field("jump", "section", "Finite-atom jump law, compensated; model 'jump' only.",
           expect="required object for a jump model"),
    _Field("jump.intensity", "number|section", "Arrival rate: a constant, or a "
           "piecewise-linear table of time points and values.  The expected "
           "thinning candidates, n_paths * peak intensity * T, may not exceed "
           f"{_MAX_JUMP_CANDIDATES:.0e}.", _REQUIRED, 0),
    _Field("jump.intensity.times", "vector", "Strictly increasing time knots.",
           _REQUIRED, nonempty=True),
    _Field("jump.intensity.values", "vector", "Rate at each knot.", _REQUIRED, 0),
    _Field("jump.atoms", "matrix", "Relative jump sizes, one row per atom; -1 kills "
           "a company.", _REQUIRED, -1, below="relative jump sizes must be >= -1"),
    _Field("jump.probs", "vector", "Probability of each row of 'atoms', summing "
           "to one.", _REQUIRED, 0, below=_SIMPLEX),
    _Field("jump.max_jumps", "integer", "Accepted jumps per path before the jump "
           "measure and its compensator switch off; no budget when absent.", minimum=0),
    _Field("grid", "section", "Time horizon and step; T must be a whole number "
           f"of steps, n_paths * T / dt at most {_MAX_PATH_STEPS:.0e} path-steps "
           f"and n_paths * stored steps * d at most 2**30 values.", _REQUIRED,
           expect="required object with keys T and dt"),
    _Field("grid.T", "number", "Time horizon.", _REQUIRED, 0, True),
    _Field("grid.dt", "number", "Time step.", _REQUIRED, 0, True),
    _Field("n_paths", "integer", "Number of simulated paths.", _REQUIRED, 1),
    _Field("seed", "integer", "Root seed; with the config it fixes every output "
           "byte.", _REQUIRED, 0),
    _Field("store_every", "integer", "Keep every k-th step in the output.", 1, 1),
    _Field("output_dir", "string", "Where to write outputs; --out overrides it."),
    _Field("diagnostics", "section", "Which diagnostics run.", {}),
    _Field("diagnostics.balance", "boolean", "Loss of balance per path.", True),
    _Field("diagnostics.limiting_distribution", "boolean", "Terminal histogram.", True),
    _Field("diagnostics.lln", "boolean", "Bank-rate ratio; invertible c only.", False),
    _Field("diagnostics.segregation", "boolean", "Divergences on one path.", True),
    _Field("thresholds", "section", "Decision thresholds of the diagnostics.", {}),
    _Field("thresholds.L_cap", "number", "L forcing Unbalanced.", DEFAULT_L_CAP),
    _Field("thresholds.atom_eps", "number", "Weight tolerance of an atom.",
           DEFAULT_ATOM_EPS),
    _Field("thresholds.d_threshold", "number", "Divergence that segregates.",
           DEFAULT_DISTANCE_THRESHOLD),
    _Field("thresholds.eps_slope", "number", "Tail slope of a settled L path.",
           DEFAULT_EPS_SLOPE),
    _Field("thresholds.indeterminate_cap", "number", "Largest indeterminate fraction "
           "before the horizon counts as too short.", DEFAULT_INDETERMINATE_CAP),
)
_SECTIONS: dict[str, dict[str, _Field]] = {}  # section path -> key -> field
for _f in _FIELDS:
    _SECTIONS.setdefault(_f.path.rpartition(".")[0], {})[_f.path.split(".")[-1]] = _f
del _f
_TOP_KEYS = set(_SECTIONS[""])
_DEFAULT_DIAGNOSTICS = {k: f.default for k, f in _SECTIONS["diagnostics"].items()}
_DEFAULT_THRESHOLDS = {k: f.default for k, f in _SECTIONS["thresholds"].items()}
_SCALARS = {  # kind -> accepted Python types, message for anything else
    "number": ((int, float), "expected a number, got {!r}"),
    "integer": (int, "expected an integer, got {!r}"),
    "boolean": (bool, "expected true or false, got {!r}"),
    "string": (str, "expected a string"), "section": (dict, "expected an object")}


@dataclasses.dataclass
class ScenarioConfig:
    """A fully validated scenario and its canonical JSON form, with what it
    runs built once: the grid and the market, ``params`` for capitalizations
    or ``kappa0`` (and ``jump_spec``) for weights; ``c_spec`` and ``r_spec``
    for both, and for neither in the death example."""

    name: str
    engine: str
    d: int
    grid: PathGrid
    params: MarketParams | None
    c_spec: ProcessSpec | None
    r_spec: ProcessSpec | None
    kappa0: np.ndarray | None
    jump_spec: JumpSpec | None
    n_paths: int
    seed: int
    store_every: int
    diagnostics: dict
    thresholds: dict
    output_dir: str | None
    resolved: dict

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps


def _fail(path: str, msg: str):
    raise ConfigParseError(f"{path}: {msg}")


@contextlib.contextmanager
def _at(path: str, errors=BalmarketsError):
    """Report a library error of type ``errors`` raised in the block as a
    config error at key ``path``."""
    try:
        yield
    except errors as err:
        raise ConfigParseError(f"{path}: {err}") from None


def _entries(path: str, val):
    """Fail at the first entry of a (nested) list that is not a number:
    ``np.asarray(val, dtype=float)`` would take strings and booleans."""
    for i, item in enumerate(val if isinstance(val, (list, tuple)) else ()):
        if isinstance(item, (list, tuple)):
            _entries(f"{path}[{i}]", item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            _fail(f"{path}[{i}]", f"expected a number, got {item!r}")


def _check(f: _Field, val):
    """``val`` checked as field ``f``: numbers as floats, lists of floats, and
    sections as dicts of their checked or defaulted fields."""
    kind = f.kind if f.kind != "number|section" else (
        "section" if isinstance(val, dict) else "number")
    if f.enum:
        if val not in f.enum:
            _fail(f.path, f.expect.format(val) if f.expect else f"unknown "
                  f"{f.path} {val!r} (known: {', '.join(sorted(f.enum))})")
        return val
    if kind in ("vector", "matrix"):
        rows = kind == "matrix"
        _entries(f.path, val)
        try:
            out = np.asarray(val, dtype=float)
        except (TypeError, ValueError, OverflowError):
            _fail(f.path, f"expected a list of {'rows of ' * rows}numbers")
        if out.ndim != 1 + rows:
            _fail(f.path, f"expected a {'matrix' if rows else 'flat list'}, "
                          f"got shape {out.shape}")
        if not np.isfinite(out).all() or (f.nonempty and not out.size):
            _fail(f.path, "expected finite numbers" if out.size else "expected a "
                  "nonempty list")
    else:
        types, expect = _SCALARS[kind]
        if (not isinstance(val, types) or (f.nonempty and not val)
                or (isinstance(val, bool) and kind != "boolean")):
            _fail(f.path, (f.expect or expect).format(val))
        if kind == "number" and not abs(val) <= sys.float_info.max:
            _fail(f.path, f"expected a finite number, got {val!r}")
        out = float(val) if kind == "number" else val
    if kind == "section":
        fields = _SECTIONS[f.path]
        for key in val:
            if key not in fields:
                _fail(f"{f.path}.{key}" if f.path else key, "unknown top-level key"
                      if not f.path else f"unknown key (known: {', '.join(fields)})")
        out = {}
        for key, sub in fields.items():
            given = val.get(key, sub.default)
            if given is None and sub.default is _OPTIONAL:  # null as absent
                continue
            if given is not _OPTIONAL:
                out[key] = _check(sub, None if given is _REQUIRED else given)
    elif f.minimum is not None and np.any(
            out <= f.minimum if f.exclusive else out < f.minimum):
        stock = f"must be at least {f.minimum}" if f.minimum else (
            "must be positive" if f.exclusive else "must be nonnegative")
        _fail(f.path, f.below or stock)
    return out.tolist() if isinstance(out, np.ndarray) else out


def _need(vals: dict, path: str, length: int | None = None):
    """The checked value at ``path``, required here; ``length`` entries if given."""
    prefix, _, key = path.rpartition(".")
    if key not in vals:
        _check(_SECTIONS[prefix][key], None)
    if length is not None and len(vals[key]) != length:
        _fail(path, f"expected length {length}, got {len(vals[key])}")
    return vals[key]


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a scenario document and resolve any builtin reference.

    Raises :class:`ConfigParseError` with the offending key path on any
    problem.  Keys in the document replace the builtin's wholesale, except
    ``diagnostics`` and ``thresholds``, whose entries merge.
    """
    if not isinstance(doc, dict):
        raise ConfigParseError("config root must be a JSON object")
    base = BUILTINS[_check(_SECTIONS[""]["builtin"], doc["builtin"])] if (
        "builtin" in doc) else {}
    merged = {**base, **doc}
    for key in ("diagnostics", "thresholds"):  # merged entry by entry
        if doc.get(key) is None or isinstance(doc[key], dict):
            merged[key] = {**base.get(key, {}), **(doc.get(key) or {})}
    # a section that may not be there is reported as such, not as malformed
    if merged.get("example") in _SECTIONS[""]["example"].enum and (
            merged.get("market") is not None or merged.get("jump") is not None):
        _fail("example", "an example scenario defines its own market; "
                         "drop the market/jump sections")
    if merged.get("model") == "continuous" and merged.get("jump") is not None:
        _fail("jump", "only meaningful when model is 'jump'")
    vals = _check(_ROOT, merged)

    if "name" not in vals:  # name and model: a builtin supplies them
        _fail("name", "required (a builtin reference supplies one)")
    model = _need(vals, "model")
    horizon, dt = vals["grid"]["T"], vals["grid"]["dt"]
    n_steps = int(round(horizon / dt)) if math.isfinite(horizon / dt) else 0
    if abs(n_steps * dt - horizon) > 1e-8 * max(1.0, horizon):
        _fail("grid.dt", f"horizon {horizon} is not a whole number of steps of {dt}")
    with _at("grid"):
        grid = PathGrid(dt=dt, n_steps=n_steps)
    # the work and the output of a run, bounded before it starts
    n_paths = vals["n_paths"]
    steps = n_paths * n_steps  # shown as inf past the float range
    if steps > _MAX_PATH_STEPS:
        _fail("grid", f"n_paths * T / dt = {steps if steps < 1e308 else math.inf:.3g}"
              f" path-steps, more than {_MAX_PATH_STEPS:.0e}")
    params = c_spec = r_spec = kappa0 = jump_spec = None
    if "example" in vals:
        if model != "jump":
            _fail("model", "the death_of_company example is a jump model")
        if dt > _EXAMPLE_MAX_DT:
            _fail("grid.dt", f"death_of_company needs dt <= {_EXAMPLE_MAX_DT:g}")
        engine, d = "jump_example", 2
    else:
        market = _need(vals, "market")
        c = np.asarray(market["c"])
        if c.shape[0] != c.shape[1]:
            _fail("market.c", f"must be square, got shape {c.shape}")
        d = c.shape[0]
        if d < 2:
            _fail("market.c", "a market needs at least two companies")
        engine = "capitalizations" if "a" in market else "balanced_weights"
        if "a" in market and "kappa0" in market:
            _fail("market.kappa0", "belongs to the balanced-weights model; "
                  "initial capitalizations go in market.s0")
        if "a" not in market and "s0" in market:
            _fail("market.s0", "belongs to the capitalization model; "
                  "balanced-weights scenarios start from market.kappa0")
        for key in ("a", "s0") if "a" in market else ("kappa0",):
            _need(market, f"market.{key}", d)
        with _at("market.c"):  # a, r and s0 are checked fields by now
            if "a" in market:
                params = validate_params(MarketParams.from_constants(
                    market["a"], c, market["r"], market["s0"]))
                c_spec, r_spec = params.c_spec, params.r_spec
            else:
                check_covariance(c)
                c_spec, r_spec = ProcessSpec.constant(c), ProcessSpec.constant(market["r"])
            if vals["diagnostics"]["lln"]:  # the bank-rate ratio inverts c
                check_invertible(c, "; diagnostics.lln needs an invertible c")
        if "kappa0" in market:  # a jump model may start with a dead company
            with _at("market.kappa0"):
                kappa0 = _checked_kappa0(market["kappa0"], open_simplex=model != "jump")
        if model == "jump":
            if engine != "balanced_weights":
                _fail("market.a", "jump scenarios evolve weights directly; "
                      "drop market.a and give market.kappa0")
            engine, jump = "jump", _need(vals, "jump")
            lam_peak = inten = jump["intensity"]
            if isinstance(inten, dict):
                with _at("jump.intensity"):
                    inten = ProcessSpec.time_table(inten["times"], inten["values"])
                lam_peak = float(inten.values.max())
            candidates = n_paths * lam_peak * horizon
            if candidates > _MAX_JUMP_CANDIDATES:
                _fail("jump.intensity", f"n_paths * peak intensity * T = "
                      f"{candidates:.3g} expected thinning candidates, more than "
                      f"{_MAX_JUMP_CANDIDATES:.0e}")
            probs = _need(jump, "jump.probs", len(jump["atoms"]))
            with _at("jump.probs", JumpLawError), _at("jump.atoms", JumpDomainError):
                jump_spec = JumpSpec.finite_atoms(
                    inten, lam_peak, jump["atoms"], probs,
                    max_jumps=jump.get("max_jumps"))
            if jump_spec.d != d:
                _fail("jump.atoms", f"expected {d} sizes per atom, got {jump_spec.d}")
    values = n_paths * (-(-n_steps // vals["store_every"]) + 1) * d
    if values > _MAX_OUTPUT_VALUES:
        _fail("grid", f"n_paths * stored steps * d = {values:.3g} values per "
              "output array, more than 2**30")

    resolved = {key: val for key, val in vals.items()
                if key not in ("builtin", "description", "output_dir")}
    return ScenarioConfig(
        engine=engine, d=d, grid=grid, params=params, c_spec=c_spec,
        r_spec=r_spec, kappa0=kappa0, jump_spec=jump_spec,
        output_dir=vals.get("output_dir"), resolved=resolved,
        **{key: resolved.get(key) for key in (
            "name", "n_paths", "seed", "store_every", "diagnostics",
            "thresholds")})


def _schema(f: _Field) -> dict:
    """The JSON Schema of field ``f``."""
    num = {"type": "number"}
    if f.minimum is not None:
        num["exclusiveMinimum" if f.exclusive else "minimum"] = f.minimum
    out = dict(num, type=f.kind) if f.kind in ("number", "integer") else (
        {"type": f.kind})
    if f.kind in ("vector", "matrix"):
        out = {"type": "array", "items": num if f.kind == "vector"
               else {"type": "array", "items": num}}
    elif "section" in f.kind:
        fields = _SECTIONS[f.path]
        out = {"type": "object", "additionalProperties": False,
               "properties": {key: _schema(sub) for key, sub in fields.items()}}
        out["required"] = [k for k, sub in fields.items() if sub.default is _REQUIRED]
        if f.kind == "number|section":
            out = {"oneOf": [num, out]}
    if f.enum:
        out["enum"] = list(f.enum)
    if f.nonempty:
        out["minLength" if f.kind == "string" else "minItems"] = 1
    if f.kind != "section" and f.default not in (_REQUIRED, _OPTIONAL):
        out["default"] = f.default
    return {"description": f.doc, **out}


def scenario_schema() -> dict:
    """The draft-07 JSON Schema of a scenario, from the table that
    :func:`parse_config` walks; ``docs/scenario_schema.json`` holds its
    ``json.dumps(..., indent=2) + "\\n"``.  Rules across fields are in descriptions."""
    top = _schema(_ROOT)
    then = {"required": ["name", "model", *top.pop("required")]}
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            "title": "balmarkets scenario configuration", **top,
            "if": {"not": {"required": ["builtin"]}}, "then": then}


# ---------------------------------------------------------------------------
# running


def _whole_market_path(rec: LifetimeRecord) -> int | None:
    """The first path on which no company has a death time."""
    hits = np.flatnonzero(np.isinf(rec.zeta).all(axis=1))
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
    return _write_hashed(path, [(text + "\n").encode()])


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
    grid, thresholds = cfg.grid, cfg.thresholds
    digests: dict[str, str] = {}
    summary: dict = {
        "version": __version__,
        "name": cfg.name,
        "engine": cfg.engine,
        "seed": cfg.seed,
        "n_threads": n_threads,
        "config": cfg.resolved,
    }

    rec = jump_spec = a_spec = r_spec = None
    if cfg.engine == "jump_example":
        rep = example_death_of_company(
            grid, cfg.n_paths, cfg.seed, store_every=cfg.store_every)
        ps, rec, jump_spec = rep["path_set"], rep["lifetimes"], rep["jump_spec"]
        summary["example_report"] = {key: rep[key] for key in (
            "sup_error", "death_time", "death_time_err", "expected_death_time",
            "dying_fraction", "expected_dying_fraction", "dying_fraction_se",
            "death_time_spread")}
    elif cfg.engine == "capitalizations":
        ps = simulate_capitalizations(
            cfg.params, grid, cfg.n_paths, cfg.seed,
            store_every=cfg.store_every, n_threads=n_threads,
        )
        a_spec, r_spec = ps.a_spec, ps.r_spec
    else:  # the weight engine; a continuous market has no jump law
        jump_spec = cfg.jump_spec
        ps, rec = simulate_jump_balanced(
            cfg.c_spec, jump_spec, cfg.kappa0, grid, cfg.n_paths, cfg.seed,
            store_every=cfg.store_every, n_threads=n_threads,
        )
        if jump_spec is None:  # a_spec stays None: the balanced drift a = c kappa + r 1
            rec, r_spec = None, cfg.r_spec

    times = ps.times()
    csv_path = os.path.join(out_dir, "paths.csv")
    if rec is not None:
        digests["paths.csv"] = jump_pathset_to_csv(ps, rec, csv_path)
    else:
        digests["paths.csv"] = pathset_to_csv(ps, csv_path)
    summary["paths"] = pathset_summary(ps)

    L_term = None
    if cfg.diagnostics["balance"]:
        report = loss_of_balance(
            ps, a_spec, r_spec, jump_spec=jump_spec, lifetimes=rec,
            eps_slope=thresholds["eps_slope"], L_cap=thresholds["L_cap"],
        )
        L_term = report.L_terminal
        summary["balance"] = report.to_json_dict()
        digests["balance.json"] = _write_json(
            os.path.join(out_dir, "balance.json"), summary["balance"])
    else:
        summary["balance"] = {"enabled": False}

    if cfg.diagnostics["segregation"]:
        pidx = 0 if rec is None else _whole_market_path(rec)
        if pidx is None:
            payload = {"enabled": False,
                       "reason": "no path kept every company alive to "
                                 "the horizon"}
        else:
            D = distance_matrix(ps, a_spec, r_spec=r_spec, path_index=pidx,
                                jump_spec=jump_spec, lifetimes=rec)
            payload = D.to_json_dict()
            payload["path_index"] = pidx
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
        digests["limiting.csv"] = limiting_to_csv(
            ld, os.path.join(out_dir, "limiting.csv"), L_terminal=L_term)
        summary["limiting"] = {
            "histogram": dict(ld.histogram),
            "atom_eps": thresholds["atom_eps"],
        }
    else:
        summary["limiting"] = {"enabled": False}

    if cfg.diagnostics["lln"] and cfg.c_spec is None:
        summary["lln"] = {
            "enabled": False,
            "reason": "the example scenario fixes its own coefficients; "
                      "no alternative bank rate to compare",
        }
    elif cfg.diagnostics["lln"]:
        c0, rate = cfg.c_spec.value, cfg.r_spec.value
        if cfg.params is not None:
            r_tilde = ProcessSpec.constant(
                implied_interest_rate(cfg.params.a_spec.value, c0))
        else:
            r_tilde = ProcessSpec.state_function(
                lambda t, k: implied_interest_rate(c0 @ k + rate, c0))
        stat = bank_rate_statistic(ps, r_tilde, cfg.r_spec, path_index=0)
        ones = np.ones(c0.shape[0])
        normalizer = float(ones @ np.linalg.solve(c0, ones)) * float(
            times[-1] - times[0])
        ratio, collapsed = lln_diagnostic(
            np.array([0.0, stat]), np.array([0.0, normalizer]))
        summary["lln"] = {"statistic": stat, "normalizer": normalizer,
                          "ratio": ratio, "collapsed": collapsed, "path_index": 0}
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

    Raises :class:`ConfigParseError` when the file is not a readable
    summary, and :class:`VersionMismatch` when the summary was written by a
    different package version; determinism is only promised within one.
    Returns the new summary and whether every digest matched.
    """
    prior = _load_json(summary_path, "summary")
    if "config" not in prior:
        raise ConfigParseError(f"{summary_path}: not a run summary (expected "
                               "an object holding 'config')")
    stored = prior.get("version")
    if stored != __version__:
        raise VersionMismatch(
            f"summary written by version {stored}, running {__version__}; "
            "byte-level replay is only defined within a version"
        )
    cfg = parse_config(prior["config"])
    summary = run_scenario(cfg, out_dir, n_threads=n_threads)
    return summary, prior.get("digests") == summary["digests"]


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


def _load_json(path: str, what: str) -> dict:
    """The JSON object in ``path``, else :class:`ConfigParseError`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigParseError(f"{path}: cannot read the {what} ({err.strerror})") from None
    except ValueError as err:  # not JSON, or not text
        raise ConfigParseError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path}: the {what} root must be a JSON object")
    return doc


def _load_config_doc(ref: str) -> dict:
    if not os.path.exists(ref):
        if ref in BUILTINS:
            return {"builtin": ref}
        raise ConfigParseError(
            f"{ref!r} is neither a config file nor a builtin name "
            f"(builtins: {', '.join(sorted(BUILTINS))})")
    return _load_json(ref, "config")


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
          f"T={cfg.resolved['grid']['T']:g}, dt={cfg.grid.dt:g}, "
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
                       help="worker processes (default $BM_THREADS or 1)")
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
                       help="worker processes (default $BM_THREADS or 1)")
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
