"""Property tests of the shipped chart maps, and of condition I's image
enclosure of the chart-conjugated maps, against exact rational values."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from henoncert import (Box, HenonMap, Interval, IteratedMap, make_paper_hsets,
                       paper_map_pairs)
from henoncert.covering import mean_value_image
from test_henon import pair_image_exact
from test_hsets import exact_chart, local_exact, world_exact

HSETS = dict(zip("ab", make_paper_hsets()))
PAIRS = paper_map_pairs(IteratedMap(HenonMap(), k=4), HSETS)

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


def _side(j):
    """(lo, w): a dyadic side of width w = 2^-j inside [-1, 1]."""
    w = Fraction(2) ** -j
    return st.integers(0, int(4 * (2 / w - 1))).map(lambda k: (-1 + k * w / 4, w))


# widths 2 (the whole cube) down to 1/16, under a 20^3 cell's 0.1
sides = st.integers(-1, 4).flatmap(_side)
fraction = st.integers(0, 2 ** 10).map(lambda k: Fraction(k, 2 ** 10))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(label=st.sampled_from(list(PAIRS)), box=st.tuples(sides, sides, sides),
       ts=st.lists(st.tuples(fraction, fraction, fraction), min_size=1, max_size=4))
def test_mean_value_image_encloses_exact_images(label, box, ts):
    f = PAIRS[label]
    P = Box([Interval(float(lo), float(lo + w)) for lo, w in box])
    orbit = f.orbit(P)
    Y = mean_value_image(f, P, orbit, f.eval(P, orbit))
    for t in ts:
        p = [lo + ti * w for (lo, w), ti in zip(box, t)]
        assert _encloses(Y, pair_image_exact(label, p))
