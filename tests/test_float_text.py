"""The block float printer: the characters of ``'%.17g' % x``, value by value.

``sde_engine._format_g17`` prints values whose decimal exponent lies in
-6..16 from one exact product each and hands every other value to ``%``;
both routes must give the bytes of ``'%.17g'``.  The inputs aim at the
places where such a printer goes wrong: rounding (half-way cases, ties to
even), the decimal exponent next to powers of ten, the edges of the exact
domain and of fixed notation, and the values ``%`` keeps.
"""

from decimal import Decimal

import numpy as np
import pytest

from balmarkets.sde_engine import _G17Scratch, _format_g17


def _reference(block):
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in block)


def _assert_prints_like_percent(values, width):
    values = np.asarray(values, dtype=float)
    block = values[: values.size - values.size % width].reshape(-1, width)
    got, want = _format_g17(block), _reference(block)
    if got != want:
        bad = [(w, g) for w, g in zip(want.split("\n"), got.split("\n")) if w != g]
        pytest.fail(f"{len(bad)} rows differ, first (want, got): {bad[:3]}")


def _near(x):
    """x and its two neighbours on each side."""
    x = np.asarray(x, dtype=float)
    down = np.nextafter(x, -np.inf)
    up = np.nextafter(x, np.inf)
    return np.concatenate([np.nextafter(down, -np.inf), down, x, up,
                           np.nextafter(up, np.inf)])


def _halfway(rng):
    """Exact doubles whose 18th significant digit is a 5 and nothing follows.

    ``N / 2**j`` with odd ``N`` has ``j`` decimals, the last a 5; at decimal
    exponent ``E = 17 - j`` that is 18 significant digits, so the 17-digit
    rounding is a tie, which goes to the even neighbour.
    """
    out = []
    for E in range(-6, 15):
        j = 17 - E
        lo, hi = int(10**E * 2**j) + 1, min(int(10 ** (E + 1) * 2**j), 2**53)
        if hi - lo > 2:
            out += [(int(n) | 1) / 2**j for n in rng.integers(lo, hi, 60)]
    return np.array(out)


@pytest.mark.parametrize("width", [1, 3, 4])
def test_random_bit_patterns_print_like_percent(width):
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2**64, size=36_000, dtype=np.uint64)
    _assert_prints_like_percent(bits.view(np.float64), width)


def test_values_of_every_decade_print_like_percent():
    rng = np.random.default_rng(1)
    mag = 10.0 ** rng.uniform(-9, 19, 60_000)
    _assert_prints_like_percent(mag * rng.choice([-1.0, 1.0], mag.size), 3)


def test_specials_and_subnormals_print_like_percent():
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308,
                     2.2250738585072014e-308])
    special = np.array([0.0, np.inf, np.nan, 1.7976931348623157e308])
    values = np.concatenate([tiny, -tiny, special, -special])
    _assert_prints_like_percent(values, 1)
    _assert_prints_like_percent(np.tile(values, 3), 3)


def test_powers_of_ten_and_their_neighbours_print_like_percent():
    # the log10 guess of the decimal exponent is off by one next to 10**j
    powers = np.array([float(f"1e{j}") for j in range(-25, 26)])
    near = _near(powers)
    _assert_prints_like_percent(np.concatenate([near, -near]), 1)
    # 9.99..., 99.9..., ...: the digits are nines that must not round up
    nines = np.array([float("9" * 17 + f"e{j}") for j in range(-25, 10)])
    _assert_prints_like_percent(_near(nines), 1)


def test_ties_round_to_even():
    rng = np.random.default_rng(2)
    ties = _halfway(rng)
    assert ties.size > 1000
    assert "%.17g" % 123456789012345.125 == "123456789012345.12"
    _assert_prints_like_percent(np.concatenate([ties, [123456789012345.125]]), 1)


def test_rounding_up_into_the_next_decade_prints_like_percent():
    # the doubles nearest 10**j that lie below it, yet print as 1e+j
    ups = [float(f"1e{j}") for j in range(-320, 309)
           if Decimal(float(f"1e{j}")) < Decimal(10) ** j
           and ("%.17g" % float(f"1e{j}")).startswith("1e")]
    assert len(ups) > 5
    _assert_prints_like_percent(_near(ups), 1)


def test_notation_and_domain_edges_print_like_percent():
    # fixed notation for -4 <= E <= 16; d.ddde-0X at E = -5, -6; the kernel
    # covers 1e-6 <= |x| < 1e17 exactly, and the double nearest 1e-6 lies
    # below it (9.9999999999999995e-07)
    edges = np.array([1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1.0, 10.0, 1e15, 1e16,
                      1e17, 1e18, 1.5e-5, 1.5e-4, 2.5e16, 2.5e17,
                      0.000123, 1.2e-6, 1.25e-5, 123.0, 1e16 + 2, 3.0e16])
    _assert_prints_like_percent(_near(np.concatenate([edges, -edges])), 1)
    assert _format_g17(np.array([[1e-6]])) == "9.9999999999999995e-07\n"


def test_empty_blocks_and_a_small_scratch():
    assert _format_g17(np.empty((0, 3))) == ""
    rng = np.random.default_rng(3)
    block = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-8, 18, (50, 3))
    # two rows per pass through a scratch of six values
    assert _format_g17(block, _G17Scratch(6)) == _reference(block)
