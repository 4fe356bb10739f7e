"""Property tests: split-rate arithmetic picks each node's rate, then computes once.

On array inputs ``DifferentialRates`` selects r_lend or r_borrow per node by
the sign of its cash and evaluates one formula.  The references below are
the literal two-branch formulas: both branches over the whole array, one of
them kept by ``np.where``.  Every element must match them bit for bit, for
scalar rates and for stacked rate arrays (one pair per column) alike.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gamehedge import DifferentialRates, eval_g  # noqa: E402
from gamehedge.generators import _stack_generators, implicit_start  # noqa: E402


def reference_g(gen, y, z, s):
    cash = y - z * s
    return np.where(cash >= 0.0, -gen.r_lend * cash, -gen.r_borrow * cash)


def reference_start(gen, rhs, z, s, dt):
    zs = z * s
    lend = (rhs + gen.r_lend * zs * dt) / (1.0 + gen.r_lend * dt)
    borrow = (rhs + gen.r_borrow * zs * dt) / (1.0 + gen.r_borrow * dt)
    return np.where(rhs - zs >= 0.0, lend, borrow)


def assert_matches_reference(gen, y, z, s, dt):
    with np.errstate(all="ignore"):  # magnitudes near 1e300 overflow in z*s on purpose
        pairs = ((eval_g(gen, 0.25, y, z, s), reference_g(gen, y, z, s)),
                 (implicit_start(gen, 0.25, y, z, s, dt), reference_start(gen, y, z, s, dt)))
    for got, want in pairs:
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


# y, z and s per node: cash y - z*s is +0.0, -0.0, near 1e300 and overflowing
EDGE_Y = np.array([0.0, -0.0, 0.0, -0.0, 300.0, -300.0, 1e300, -1e300, 1.7e308, 5.0, -5.0])
EDGE_Z = np.array([0.0, 0.0, -0.0, -0.0, 3.0, -3.0, -1e298, 1e298, -1e307, 0.05, -0.05])
EDGE_S = np.array([1.0, 1.0, 2.0, 2.0, 100.0, 100.0, 100.0, 100.0, 50.0, 100.0, 100.0])
EDGE_PAIRS = [(0.0, 0.0), (0.0, 0.1), (0.02, 0.1), (0.05, 0.05), (0.1, 0.1), (2.0, 40.0)]


@pytest.mark.parametrize("r_lend, r_borrow", EDGE_PAIRS)
def test_scalar_rates_match_the_two_branch_formula_at_the_edges(r_lend, r_borrow):
    gen = DifferentialRates(r_lend, r_borrow)
    for dt in (1e-3, 0.25, 1.0):
        assert_matches_reference(gen, EDGE_Y, EDGE_Z, EDGE_S, dt)
        # a row with trailing batch columns: node data padded along axis 0
        assert_matches_reference(gen, np.stack([EDGE_Y, -EDGE_Y], axis=1), EDGE_Z[:, None],
                                 EDGE_S[:, None], dt)


def test_stacked_rates_match_the_two_branch_formula_at_the_edges():
    gen = _stack_generators([DifferentialRates(*pair) for pair in EDGE_PAIRS])
    columns = len(EDGE_PAIRS)
    y = np.repeat(EDGE_Y[:, None], columns, axis=1)
    for dt in (1e-3, 0.25, 1.0):
        assert_matches_reference(gen, y, EDGE_Z[:, None], EDGE_S[:, None], dt)
        # two sides' rows, as the sweep steps them: node x side x column
        assert_matches_reference(gen, np.stack([y, -y], axis=1), EDGE_Z[:, None, None],
                                 EDGE_S[:, None, None], dt)


RATES = st.one_of(st.sampled_from((0.0, 0.02, 0.1)), st.floats(0.0, 40.0))
RATE_PAIRS = st.one_of(st.tuples(RATES, RATES).map(sorted), RATES.map(lambda r: [r, r]))
VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-1e3, 1e3),
                   st.floats(-1e300, 1e300))
SPOTS = st.one_of(st.sampled_from((1.0, 100.0)), st.floats(1e-3, 1e3))


@st.composite
def two_rate_cases(draw):
    """(gen, y, z, s, dt) on n nodes and the generator's columns; some cash exactly +-0."""
    pairs = draw(st.lists(RATE_PAIRS, min_size=1, max_size=4))
    if draw(st.booleans()):
        gen, columns = _stack_generators([DifferentialRates(*p) for p in pairs]), len(pairs)
    else:
        gen, columns = DifferentialRates(*pairs[0]), draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    y, z = (np.array(draw(st.lists(VALUES, min_size=n * columns, max_size=n * columns)))
            .reshape(n, columns) for _ in range(2))
    s = np.array(draw(st.lists(SPOTS, min_size=n, max_size=n)))[:, None]
    with np.errstate(all="ignore"):
        zs = z * s
    balanced = np.array(draw(st.lists(st.booleans(), min_size=n * columns,
                                      max_size=n * columns))).reshape(n, columns)
    y = np.where(balanced, zs, y)  # cash y - z*s exactly zero, of either sign
    return gen, y, z, s, draw(st.floats(1e-4, 1.0))


@settings(max_examples=300, deadline=None)
@given(case=two_rate_cases())
def test_rate_selection_matches_the_two_branch_formula(case):
    assert_matches_reference(*case)
