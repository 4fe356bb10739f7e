"""Property tests: the builtin's fused implicit step equals the unfused loop bit for bit.

``generators.two_rate_step`` does in one pass what the general fixed-point
loop's first iteration does for ``DifferentialRates``: the exact start and
one confirming generator application; ``two_rate_residual`` measures the
residual.  ``reference_implicit_row`` below is that loop as it stood before
the fusion, ``implicit_start`` and ``eval_g`` included, kept literally, with
its exit test per column (``axis=0``).  On 1-D rows, rows with batch columns
and rows with stacked rates and side x column batch axes,
``drbsde._implicit_row`` must return the reference's v, residual and
iteration count byte for byte, or raise the same error with the same text
after the same warnings.  Magnitudes reach 1e6, so both exit
tests are exercised (above |v| = 8192 only the relative one passes), and
non-finite data takes the general loop.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from gamehedge import DifferentialRates, NonFiniteInput  # noqa: E402
from gamehedge.drbsde import FIXED_POINT_TOL, MAX_FIXED_POINT_ITER, _implicit_row  # noqa: E402
from gamehedge.errors import NonConvergence  # noqa: E402
from gamehedge.generators import _stack_generators, two_rate_step  # noqa: E402

RELATIVE_TOL = 4.0 * np.finfo(np.float64).eps
RATES = (0.0, 0.02, 0.05, 0.1, 0.5)
STEPS = (1e-3, 0.005, 0.25, 1.0)


# --- the unfused loop, as it stood before the fusion -------------------------

def _check_finite(name, value):
    finite = np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)
    if not finite:
        raise NonFiniteInput(f"{name} must be finite")


def reference_eval_g(gen, t, y, z, s):
    _check_finite("t", t)
    with np.errstate(invalid="ignore"):
        cash = y - z * s
        if isinstance(cash, np.ndarray):
            g = np.where(cash >= 0.0, -gen.r_lend, -gen.r_borrow)
            g *= cash
        else:
            g = -gen.r_lend * cash if cash >= 0.0 else -gen.r_borrow * cash
    finite = np.isfinite(g).all() if isinstance(g, np.ndarray) else math.isfinite(g)
    if not finite:
        for name, value in (("y", y), ("z", z), ("s", s)):
            _check_finite(name, value)
    return g


def reference_start(gen, rhs, z, s, dt):
    zs = z * s
    r = np.where(rhs - zs >= 0.0, gen.r_lend, gen.r_borrow)
    num = r * zs
    num *= dt
    num += rhs
    r *= dt
    r += 1.0
    num /= r
    return num


def reference_implicit_row(gen, t, rhs, z, s, dt, axis, residual):
    v, live = reference_start(gen, rhs, z, s, dt), None
    for it in range(1, MAX_FIXED_POINT_ITER + 1):
        v_new = reference_eval_g(gen, t, v, z, s)
        v_new *= dt
        v_new += rhs
        if live is not None:
            v_new = np.where(live, v_new, v)
        change = v_new - v
        change = np.abs(change, out=change if isinstance(change, np.ndarray) else None)
        v, delta = v_new, float(np.max(change))
        if delta <= FIXED_POINT_TOL:
            break
        col = np.max(change, axis=axis)
        live = ~((col <= FIXED_POINT_TOL) | (col <= RELATIVE_TOL * np.max(np.abs(v), axis=axis)))
        if not live.any():
            break
    else:
        raise NonConvergence("did not converge")
    if not residual:
        _check_finite("y", v)
        return v, None, it
    return v, float(np.max(np.abs(v - (rhs + reference_eval_g(gen, t, v, z, s) * dt)))), it


# --- comparison --------------------------------------------------------------

def outcome(step, *args):
    """The step's bytes, residual and iterations, or its error, with every warning raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            v, res, its = step(*args)
            result = (v.shape, v.tobytes(), None if res is None else res.hex(), its)
        except NonFiniteInput as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def reference_first_iteration(gen, rhs, z, s, dt):
    """v1 and |v1 - v0| of the reference loop's first iteration, on finite data."""
    v0 = reference_start(gen, rhs, z, s, dt)
    v1 = reference_eval_g(gen, 0.5, v0, z, s)
    v1 *= dt
    v1 += rhs
    return v1, np.abs(v1 - v0)


def assert_step_matches_reference(gen, rhs, z, s, dt):
    inputs = [a.tobytes() for a in (rhs, z, s) if isinstance(a, np.ndarray)]
    for residual in (True, False):
        want = outcome(reference_implicit_row, gen, 0.5, rhs, z, s, dt, 0, residual)
        assert outcome(_implicit_row, gen, 0.5, rhs, z, s, dt, residual) == want
        assert [a.tobytes() for a in (rhs, z, s) if isinstance(a, np.ndarray)] == inputs
    first = two_rate_step(gen, 0.5, rhs, z, s, dt)
    if first is None:  # only non-finite data leaves the pass to the loop
        assert want[0][0] is NonFiniteInput
    else:
        v1, change = reference_first_iteration(gen, rhs, z, s, dt)
        assert (first[0].tobytes(), first[1].tobytes()) == (v1.tobytes(), change.tobytes())
        assert first[3] == float(change.max())


# values with exact zeros of both signs, mixed signs and magnitudes up to 1e6
VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                   st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
SPOTS = st.one_of(st.just(0.0), st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False))
RATE_PAIRS = st.tuples(st.sampled_from(RATES), st.sampled_from(RATES)).map(sorted)


def arrays(shape, elements=VALUES):
    return hnp.arrays(np.float64, shape, elements=elements)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), rates=RATE_PAIRS, dt=st.sampled_from(STEPS))
def test_fused_step_matches_the_loop_on_rows(data, n, rates, dt):
    rhs, z = data.draw(arrays(n)), data.draw(arrays(n))
    s = data.draw(arrays(n, SPOTS))
    assert_step_matches_reference(DifferentialRates(*rates), rhs, z, s, dt)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), sides=st.integers(1, 2),
       pairs=st.lists(RATE_PAIRS, min_size=1, max_size=5), dt=st.sampled_from(STEPS))
def test_fused_step_matches_the_loop_on_stacked_side_rows(data, n, sides, pairs, dt):
    # a sweep row: node data padded along axis 0, one column per stacked generator
    gen = _stack_generators([DifferentialRates(*pair) for pair in pairs])
    shape = (n, sides, len(pairs))
    rhs, z = data.draw(arrays(shape)), data.draw(arrays(shape))
    s = data.draw(arrays((n, 1, 1), SPOTS))
    assert_step_matches_reference(gen, rhs, z, s, dt)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), rates=RATE_PAIRS, dt=st.sampled_from(STEPS),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), where=st.sampled_from("yzs"),
       columns=st.booleans())
def test_non_finite_data_raises_the_loops_error(data, n, rates, dt, bad, where, columns):
    shape = (n, 3) if columns else (n,)
    rhs, z = data.draw(arrays(shape)), data.draw(arrays(shape))
    s = data.draw(arrays(shape, SPOTS))
    part = {"y": rhs, "z": z, "s": s}[where]
    part[data.draw(st.tuples(*(st.integers(0, d - 1) for d in shape)))] = bad
    gen = DifferentialRates(*rates)
    assert two_rate_step(gen, 0.5, rhs, z, s, dt) is None
    want = outcome(reference_implicit_row, gen, 0.5, rhs, z, s, dt, 0, True)
    assert want[0][0] is NonFiniteInput
    assert_step_matches_reference(gen, rhs, z, s, dt)


def test_the_exit_test_judges_the_fused_pass():
    gen = DifferentialRates(0.02, 0.1)
    dt = 0.005
    # above |v| = 8192 one ulp exceeds FIXED_POINT_TOL, so these steps end on the
    # relative test after the fused pass, with the loop's bits and one iteration
    rhs = np.array([-918052.95, 631707.11, 12345.678])
    z, s = np.array([-0.97, -0.99, 1.1]), np.array([100.0, 100.0, 90.0])
    assert two_rate_step(gen, 0.5, rhs, z, s, dt)[3] > FIXED_POINT_TOL
    assert_step_matches_reference(gen, rhs, z, s, dt)
    assert _implicit_row(gen, 0.5, rhs, z, s, dt, True)[2] == 1
    # z*s near -4.6e10 against rhs near 4.6e6: the start's rounding leaves a change
    # above both tolerances, and the general loop takes a second iteration
    rhs, z, s = np.array([4604264.753]), np.array([-460426572.0]), np.array([100.0])
    assert two_rate_step(gen, 0.5, rhs, z, s, dt)[3] > FIXED_POINT_TOL
    assert_step_matches_reference(gen, rhs, z, s, dt)
    assert _implicit_row(gen, 0.5, rhs, z, s, dt, True)[2] == 2
