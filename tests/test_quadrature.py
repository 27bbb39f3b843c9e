"""The one-pass segmented Gauss-Legendre kernel against the segment-at-a-time
loop it replaced, compared bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmax_lab.quadrature import Z_MAX, gaussian_expectation

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _phi(z):
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _plain_segment(f, mu, s, a, b, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (b - a)
    z = 0.5 * (a + b) + half * x
    return half * float(np.dot(w, f(mu + s * z) * _phi(z)))


def _root_segment(f, mu, s, a, b, nodes, root_at_lo):
    x, w = np.polynomial.legendre.leggauss(nodes)
    span = np.sqrt(b - a)
    u = 0.5 * span * (x + 1.0)
    z = (a + u * u) if root_at_lo else (b - u * u)
    vals = f(mu + s * z) * _phi(z) * 2.0 * u
    return 0.5 * span * float(np.dot(w, vals))


def reference_expectation(f, mu, s, nodes, kinks=(), roots=()):
    """The per-segment loop: one f call and one dot product per segment."""
    mu, s = float(mu), float(s)
    if s == 0.0:
        return float(np.asarray(f(np.asarray([mu])), dtype=float)[0])
    marks = []
    for t in roots:
        z = (float(t) - mu) / s
        if -Z_MAX < z < Z_MAX:
            marks.append((z, True))
    for t in kinks:
        z = (float(t) - mu) / s
        if -Z_MAX < z < Z_MAX:
            marks.append((z, False))
    marks.sort()
    edges = [(-Z_MAX, False)] + marks + [(Z_MAX, False)]
    total = 0.0
    for (a, a_is_root), (b, b_is_root) in zip(edges[:-1], edges[1:]):
        if b - a <= 0.0:
            continue
        if a_is_root:
            total += _root_segment(f, mu, s, a, b, nodes, root_at_lo=True)
        elif b_is_root:
            total += _root_segment(f, mu, s, a, b, nodes, root_at_lo=False)
        else:
            total += _plain_segment(f, mu, s, a, b, nodes)
    return total


def _integrand(kind, p, k):
    if kind == "power":
        return lambda t: np.abs(t) ** p
    if kind == "signed":
        return lambda t: np.sign(t) * np.abs(t) ** p
    return lambda t: np.where(np.abs(t) <= k, 0.5 * t * t, k * np.abs(t) - 0.5 * k * k)


points = st.floats(min_value=-40.0, max_value=40.0)


class TestOnePassKernel:
    @given(
        mu=st.floats(min_value=-30.0, max_value=30.0),
        s=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        nodes=st.integers(min_value=2, max_value=300),
        kind=st.sampled_from(["power", "signed", "huber"]),
        p=st.floats(min_value=0.5, max_value=4.0),
        k=st.floats(min_value=0.1, max_value=3.0),
        kinks=st.lists(points, max_size=3),
        roots=st.lists(points, max_size=2),
        kink_on_root=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_segment_loop(self, mu, s, nodes, kind, p, k, kinks, roots,
                                           kink_on_root):
        if kink_on_root and roots:
            kinks = kinks + [roots[0]]
        f = _integrand(kind, p, k)
        got = gaussian_expectation(f, mu, s, nodes, kinks=kinks, roots=roots)
        assert got == reference_expectation(f, mu, s, nodes, kinks=kinks, roots=roots)

    def test_kink_on_root_and_points_outside_the_window(self):
        # a kink at the root, a root at z = -20 and a kink at z = +16
        f = _integrand("huber", 0.0, 1.0)
        kinks, roots = (0.0, 1.0, 16.3), (0.0, -19.7)
        got = gaussian_expectation(f, 0.3, 1.0, 200, kinks=kinks, roots=roots)
        assert got == reference_expectation(f, 0.3, 1.0, 200, kinks=kinks, roots=roots)

    @pytest.mark.parametrize("kind, mu, kinks, roots, rows", [
        # every row next to a root: a power loss, one root or two
        ("power", 0.3, (), (0.0,), 2),
        ("power", 0.3, (), (-1.0, 1.0), 3),
        # no root in the window: plain rows only
        ("huber", 0.3, (-1.0, 1.0), (), 3),
        ("power", 0.3, (), (17.0,), 1),
        # Huber: plain rows outside the elbows, root rows inside
        ("huber", 0.3, (-1.0, 1.0), (0.0,), 4),
        ("huber", -0.6, (-0.5, 0.5), (0.0,), 4),
    ])
    def test_each_branch_matches_the_segment_loop(self, kind, mu, kinks, roots, rows):
        f, lengths = _integrand(kind, 1.5, 1.0), []

        def counted(t):
            lengths.append(t.shape)
            return f(t)

        got = gaussian_expectation(counted, mu, 1.0, 64, kinks=kinks, roots=roots)
        assert lengths == [(rows * 64,)]
        assert got.hex() == reference_expectation(f, mu, 1.0, 64, kinks, roots).hex()

    def test_f_called_once_on_all_nodes(self):
        lengths = []

        def f(t):
            lengths.append(t.shape)
            return np.abs(t) ** 1.5

        gaussian_expectation(f, 0.2, 1.0, 50, kinks=(-1.0, 1.0), roots=(0.0,))
        assert lengths == [(4 * 50,)]
