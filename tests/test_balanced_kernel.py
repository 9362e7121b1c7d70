"""The company-major balanced step against a frozen row-major copy.

``sde_engine._balanced_step`` keeps its log-weights company-major,
``(d, rows)``, so its reductions and broadcasts run along the path axis.
The row-major kernel it replaced is pasted below and serves as the
reference: weights, log-weights and the health statistics must match it
bit for bit (its defect sums follow the engine's per-row rule, and the
simplex defect of its output, which the engine no longer counts, is
gone).  The zero-diffusion cohort reference in ``test_jump_cohorts.py``
renormalizes with the same frozen copy.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from balmarkets.market_model import psd_factor
from balmarkets.sde_engine import (
    _LOG_FLOOR,
    EngineDiagnostics,
    _balanced_step,
    _company_sum,
    _renormalize_log,
)


# -- the row-major kernel, frozen -------------------------------------------

def frozen_renormalize_log(logk, diag, weights=None, rows=None):
    clip_mask = (logk < _LOG_FLOOR) & (logk > -np.inf)
    if clip_mask.any():
        diag.n_clamped += int(clip_mask.sum())
        np.copyto(logk, _LOG_FLOOR, where=clip_mask)
    mx = logk.max(axis=1, keepdims=True)
    w = np.exp(logk - mx)
    s = w.sum(axis=1, keepdims=True)
    pre = np.abs(np.exp(mx[:, 0]) * s[:, 0] - 1.0)
    diag.max_prerenorm_defect = max(diag.max_prerenorm_defect, float(pre.max()))
    # the defect sums are kept per row (they are not part of the frozen
    # kernel, which summed them per call)
    if weights is None:
        diag.n_prerenorm_samples += pre.size
    else:
        diag.n_prerenorm_samples += int(weights.sum())
        pre = pre * weights
    if not diag.prerenorm_row_sums.size:
        diag.prerenorm_row_sums = np.zeros(len(pre))
    np.add.at(diag.prerenorm_row_sums, slice(None) if rows is None else rows, pre)
    logk -= mx + np.log(s)
    return np.exp(logk)


def _frozen_noise_rows(sigma, dw):
    if sigma.ndim == 2:
        return dw @ sigma.T
    return np.array([s @ w for s, w in zip(sigma, dw)])


def _frozen_balanced_step(logk, kappa, dw_j, c, sigma, dt, diag):
    y = _frozen_noise_rows(sigma, dw_j)
    if c.ndim == 2:
        ck = kappa @ c
    else:
        ck = np.array([c_i @ k_i for c_i, k_i in zip(c, kappa)])
    quad = np.einsum("ij,ij->i", kappa, ck)
    qform = np.diagonal(c, axis1=-2, axis2=-1) - 2.0 * ck + quad[:, None]
    u = y - np.einsum("ij,ij->i", kappa, y)[:, None]
    logk += (-0.5 * dt) * qform + u
    return frozen_renormalize_log(logk, diag)


# -- helpers -----------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _diag_fields(diag):
    return (_bits(diag.max_prerenorm_defect), _bits(diag.sum_prerenorm_defect),
            diag.n_prerenorm_samples, diag.n_clamped)


def _special_rows(rng, d):
    """Random rows over many binades plus rows of signed zeros, infinities
    and NaN, ``(rows, d)`` row-major."""
    x = rng.standard_normal((40, d)) * np.exp(rng.uniform(-40.0, 40.0, (40, d)))
    x[0] = -0.0
    x[1] = np.where(rng.random(d) < 0.5, 0.0, -0.0)
    x[2, rng.integers(d)] = np.inf
    x[3, rng.integers(d)] = -np.inf
    x[4] = -np.inf
    x[5, rng.integers(d)] = np.nan
    x[6, 0], x[6, -1] = np.inf, -np.inf
    x[7] = np.where(rng.random(d) < 0.5, 1.0, -1.0) * np.exp(
        rng.uniform(-700.0, 700.0, d))
    x[8] = 1.0
    x[8, rng.integers(d)] = -1.0
    return x


def test_company_sum_and_max_match_the_row_reductions_bit_for_bit():
    rng = np.random.default_rng(2024)
    with np.errstate(invalid="ignore", over="ignore"):
        for d in range(1, 301):
            x = _special_rows(rng, d)
            xt = x.T.copy()
            assert np.array_equal(_bits(_company_sum(xt)), _bits(x.sum(axis=1))), d
            # a maximum of +0.0 against -0.0 may take either sign
            mx, ref = xt.max(axis=0), x.max(axis=1)
            nonzero = ref != 0.0
            assert np.array_equal(_bits(mx[nonzero]), _bits(ref[nonzero])), d
            assert np.array_equal(mx, ref, equal_nan=True), d


def test_sign_of_a_zero_maximum_never_reaches_the_weights():
    # rows whose maximum is a tie of +0.0 and -0.0, at widths on both
    # sides of numpy's 8-element reduction kernels
    for d in (2, 3, 9, 17):
        logk = np.full((6, d), -np.inf)
        logk[:, :2] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0],
                       [-0.0, -1.0], [0.0, -1e-300]]
        ref_diag, diag = EngineDiagnostics(), EngineDiagnostics()
        lt = logk.T.copy()
        ref = frozen_renormalize_log(logk, ref_diag)
        assert np.array_equal(_bits(_renormalize_log(lt, diag).T), _bits(ref)), d
        assert np.array_equal(_bits(lt.T), _bits(logk)), d
        assert _diag_fields(diag) == _diag_fields(ref_diag), d


def _covariance(rng, d, kind):
    """A PSD ``c`` and its factor: full rank, rank-deficient (rank 1 to
    d - 1, or zero) or near-singular (one eigenvalue at 1e-14 scale)."""
    if kind == "full":
        a = rng.standard_normal((d, d))
    elif kind == "deficient":
        a = rng.standard_normal((d, int(rng.integers(0, d))))
    else:
        a = rng.standard_normal((d, d))
        a[:, 0] = a[:, 1:].sum(axis=1) + 1e-7 * a[:, 0] if d > 1 else 1e-7
    c = 0.3 * (a @ a.T)
    return c, psd_factor(c)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(1, 12),
       rows=st.sampled_from([2, 3, 1025]),
       kind=st.sampled_from(["full", "deficient", "near_singular"]),
       per_row=st.booleans())
def test_balanced_step_matches_the_row_major_kernel(seed, d, rows, kind, per_row):
    rng = np.random.default_rng(seed)
    if per_row:
        rows = min(rows, 64)  # one Python-level product per row
        pairs = [_covariance(rng, d, kind) for _ in range(rows)]
        c = np.array([p[0] for p in pairs])
        sigma = np.array([p[1] for p in pairs])
    else:
        c, sigma = _covariance(rng, d, kind)
    # starts near faces, dead (-inf) coordinates on some rows, and
    # coordinates far below the log floor (the clamp path)
    logk = np.log(rng.dirichlet(np.full(d, 0.3), size=rows) + 1e-300)
    if d > 1:
        dead = rng.random((rows, d)) < 0.15
        dead[np.arange(rows), rng.integers(d, size=rows)] = False
        logk[dead] = -np.inf
        low = (rng.random((rows, d)) < 0.1) & ~dead
        low[np.arange(rows), logk.argmax(axis=1)] = False
        logk[low] = _LOG_FLOOR - rng.uniform(0.0, 60.0, size=int(low.sum()))
    dt = float(rng.choice([1e-4, 1e-2]))
    dw = rng.standard_normal((3, rows, d)) * np.sqrt(dt)
    kappa = np.exp(logk)
    kappa /= kappa.sum(axis=1, keepdims=True)
    ref_kappa, ref_logk, ref_diag = kappa.copy(), logk.copy(), EngineDiagnostics()
    lt, diag = logk.T.copy(), EngineDiagnostics()
    for j in range(3):
        ref_kappa = _frozen_balanced_step(ref_logk, ref_kappa, dw[j], c, sigma,
                                          dt, ref_diag)
        kappa = _balanced_step(lt, kappa, dw[j], c, sigma, dt, diag)
        assert kappa.flags.c_contiguous
        assert np.array_equal(_bits(kappa), _bits(ref_kappa)), j
        assert np.array_equal(_bits(lt.T), _bits(ref_logk)), j
        assert _diag_fields(diag) == _diag_fields(ref_diag), j
    # the jump engine's cohort rows count as that many paths each
    weights = rng.integers(0, 5, size=rows)
    ref_logk -= rng.uniform(0.0, 1e-3, size=ref_logk.shape)
    lt = ref_logk.T.copy()
    ref_kappa = frozen_renormalize_log(ref_logk, ref_diag, weights)
    kt = _renormalize_log(lt, diag, weights)
    assert np.array_equal(_bits(kt.T), _bits(ref_kappa))
    assert np.array_equal(_bits(lt.T), _bits(ref_logk))
    assert _diag_fields(diag) == _diag_fields(ref_diag)
