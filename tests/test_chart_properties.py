"""Property tests of the shipped chart maps against exact rational values."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from henoncert import Box, make_paper_hsets
from test_hsets import exact_chart, local_exact, world_exact

HSETS = dict(zip("ab", make_paper_hsets()))

# k / 2^20 in [-1, 1]: exact as doubles
dyadic = st.integers(-(2 ** 20), 2 ** 20).map(lambda k: Fraction(k, 2 ** 20))
points = st.tuples(dyadic, dyadic, dyadic)


def _encloses(box, exact):
    return all(Fraction(iv.lo) <= e <= Fraction(iv.hi) for iv, e in zip(box, exact))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from("ab"), p=points)
def test_chart_round_trip_and_exact_images(name, p):
    h = HSETS[name]
    c, M, Minv = exact_chart(name)
    P = Box.from_point([float(v) for v in p])
    W = h.world_from_local(P)
    assert _encloses(W, world_exact(c, M, p))
    assert h.local_from_world(W).contains_box(P)
    assert _encloses(h.local_from_world(P), local_exact(c, Minv, p))
