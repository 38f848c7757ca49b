import json
import math
from fractions import Fraction

import pytest

from henoncert import (Box, HSet, IMatrix, Interval, SingularMatrixError,
                       make_paper_hsets)
from henoncert.hsets import (HSET_A_DEFINITION, HSET_B_DEFINITION, hset_family,
                             load_hsets, save_hsets)
from henoncert.intervals import IntervalError
from test_henon import _dyadic_point, _inverse_exact, dense_product
from test_hyperbolicity import _width

DEFINITIONS = {"a": HSET_A_DEFINITION, "b": HSET_B_DEFINITION}
UNIT_BASIS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def at_origin(basis, **us):
    """A definition centered at the origin with the given basis."""
    return {"center": ["0", "0", "0"], "basis": basis, **us}


def _exact_in(iv, frac):
    return Fraction(iv.lo) <= frac <= Fraction(iv.hi)


def exact_chart(name):
    """(c, M, M^-1) of a shipped h-set, as Fractions."""
    d = DEFINITIONS[name]
    M = [[Fraction(v) for v in r] for r in d["basis"]]
    return [Fraction(v) for v in d["center"]], M, _inverse_exact(M)


def world_exact(c, M, p):
    return [c[i] + sum(M[i][k] * p[k] for k in range(3)) for i in range(3)]


def local_exact(c, Minv, w):
    return [sum(Minv[i][k] * (w[k] - c[k]) for k in range(3)) for i in range(3)]


class TestPaperHSets:
    def test_centers(self):
        a, b = make_paper_hsets()
        world_a = a.world_from_local(Box.from_point((0, 0, 0)))
        for iv, e in zip(world_a, ["0.81", "1.0225", "0.975"]):
            assert _exact_in(iv, Fraction(e))
        world_b = b.world_from_local(Box.from_point((0, 0, 0)))
        for iv, e in zip(world_b, ["0.81", "1.4875", "0.975"]):
            assert _exact_in(iv, Fraction(e))

    def test_vertex_111(self):
        a, _ = make_paper_hsets()
        w = a.world_from_local(Box.from_point((1, 1, 1)))
        for iv, e in zip(w, ["0.97", "1.205", "0.82"]):
            assert _exact_in(iv, Fraction(e))

    def test_exit_entry_dimensions(self):
        a, b = make_paper_hsets()
        assert (a.u, a.s) == (2, 1)
        assert (b.u, b.s) == (2, 1)

    def test_chart_inverse_verified(self):
        a, b = make_paper_hsets()
        for h in (a, b):
            assert (h.basis @ h.basis_inv).contains(IMatrix.identity(3))


class TestExactCharts:
    """The exact-rational chart inverse and the chart products, which drop
    point-zero terms, against exact rational oracles and the dense interval
    products that multiply every exact 0 and 1."""

    def test_inverse_is_tightest_enclosure(self, paper_hsets):
        for name, h in paper_hsets.items():
            _, M, Minv = exact_chart(name)
            zeros = 0
            for i in range(3):
                for j in range(3):
                    e = h.basis_inv[i, j]
                    assert _exact_in(e, Minv[i][j])
                    assert e.hi in (e.lo, math.nextafter(e.lo, math.inf))
                    if Minv[i][j] == 0:
                        assert e == Interval(0.0, 0.0)
                        zeros += 1
            assert zeros == 4

    def test_chart_maps_enclose_exact_rational(self, paper_hsets, rng):
        # dyadic points are exact doubles, so no tolerance is needed
        for name, h in paper_hsets.items():
            c, M, Minv = exact_chart(name)
            for _ in range(50):
                p = _dyadic_point(rng)
                W = h.world_from_local(Box.from_point([float(v) for v in p]))
                for iv, e in zip(W, world_exact(c, M, p)):
                    assert _exact_in(iv, e)
                w = [2 * v for v in p]
                L = h.local_from_world(Box.from_point([float(v) for v in w]))
                for iv, e in zip(L, local_exact(c, Minv, w)):
                    assert _exact_in(iv, e)

    def test_chart_maps_within_dense_products(self, paper_hsets, rng):
        widths = {"chart": 0.0, "dense": 0.0}
        for h in paper_hsets.values():
            for _ in range(100):
                lo = rng.uniform(-1, 0.8, size=3)
                X = Box([Interval(v, v + rng.uniform(0, 0.2)) for v in lo])
                for chart, dense in [
                    (h.world_from_local(X), h.center + dense_product(h.basis, X)),
                    (h.local_from_world(X), dense_product(h.basis_inv, X - h.center)),
                ]:
                    outer, inner = IMatrix([dense.coords]), IMatrix([chart.coords])
                    assert outer.contains(inner)
                    widths["chart"] += _width(inner)
                    widths["dense"] += _width(outer)
        assert widths["chart"] < widths["dense"]

    def test_jacobian_chart_products_within_dense(self, paper_hsets, h4, rng):
        widths = {"chart": 0.0, "dense": 0.0}
        for h in paper_hsets.values():
            f = h4.conjugated(h, h)
            for _ in range(20):
                lo = rng.uniform(-1, 0.8, size=3)
                J = f.jacobian(Box([Interval(v, v + 0.2) for v in lo]))
                for chart, dense in [(J @ h.basis, dense_product(J, h.basis)),
                                     (h.basis_inv @ J, dense_product(h.basis_inv, J))]:
                    assert dense.contains(chart)
                    widths["chart"] += _width(chart)
                    widths["dense"] += _width(dense)
        assert widths["chart"] < widths["dense"]


class TestChartMaps:
    def test_roundtrip_center(self):
        a, _ = make_paper_hsets()
        back = a.local_from_world(a.world_from_local(Box.from_point((0, 0, 0))))
        assert back.contains_point((0, 0, 0))

    def test_roundtrip_containment_random(self, rng):
        a, _ = make_paper_hsets()
        for _ in range(50):
            lo = rng.uniform(-1, 0.8, size=3)
            X = Box([Interval(v, v + 0.2) for v in lo])
            assert a.local_from_world(a.world_from_local(X)).contains_box(X)


class TestConstructionErrors:
    def test_singular_basis_aborts(self):
        # the type stays SingularMatrixError, and the message names the set
        for basis in ([["1", "0", "0"], ["2", "0", "0"], ["0", "0", "1"]],
                      [["0.1", "0.2", "0"], ["0.3", "0.6", "0"], ["0", "0", "1"]]):
            with pytest.raises(SingularMatrixError) as e:
                HSet("b", at_origin(basis))
            assert str(e.value) == "h-set 'b': basis: the matrix is singular"

    def test_chart_matrices_must_be_square(self):
        # the basis must be n x n for the n decimals of the center
        rows = HSET_A_DEFINITION["basis"]
        for basis in ([r[:2] for r in rows], rows[:2],
                      [r + ["0"] for r in rows] + [["0", "0", "0", "1"]]):
            with pytest.raises(IntervalError):
                HSet("bad", {**HSET_A_DEFINITION, "basis": basis})

    def test_chart_products_check_dimensions(self):
        a, _ = make_paper_hsets()
        wide = IMatrix([list(r) + [r[0]] for r in a.basis.rows])  # 3x4
        with pytest.raises(IntervalError):
            wide @ a.basis
        with pytest.raises(IntervalError):
            a.basis_inv @ wide.transpose()
        for dim in (2, 4):
            with pytest.raises(IntervalError):
                a.world_from_local(Box.cube(-1.0, 1.0, dim))
            with pytest.raises(IntervalError):
                a.local_from_world(Box.cube(-1.0, 1.0, dim))
        # only the inner dimension must match the chart
        assert (IMatrix(a.basis.rows[:2]) @ a.basis).nrows == 2
        assert (a.basis_inv @ IMatrix([r[:2] for r in a.basis.rows])).ncols == 2

    def test_inverse_out_of_double_range(self):
        with pytest.raises(IntervalError, match="^h-set 'bad': basis inverse: "):
            HSet("bad", at_origin([["1e-310", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))

    @pytest.mark.parametrize("u, s", [(2.7, True), (2.0, 1), (2, True), ("2", 1), (None, 1)])
    def test_u_and_s_must_be_integers(self, u, s):
        with pytest.raises(IntervalError):
            HSet("a", {**HSET_A_DEFINITION, "u": u, "s": s})

    def test_bad_dimensions(self):
        with pytest.raises(IntervalError):
            HSet("bad", at_origin(UNIT_BASIS, u=2, s=2))

    @pytest.mark.parametrize("definition", [
        {"center": "123", "basis": ["100", "010", "001"]},  # once read as (1, 2, 3), I
        {**HSET_A_DEFINITION, "center": "0.81"},
        {**HSET_A_DEFINITION, "basis": ["0 0.19 -0.03", *HSET_A_DEFINITION["basis"][1:]]},
        {**HSET_A_DEFINITION, "center": [0.81, "1.0225", "0.975"]},  # a number
        {**HSET_A_DEFINITION, "basis": [["0", 0.19, "-0.03"], *HSET_A_DEFINITION["basis"][1:]]},
        {**HSET_A_DEFINITION, "center": ["0.81", None, "0.975"]},
        {**HSET_A_DEFINITION, "basis": [["0", "0.19"], *HSET_A_DEFINITION["basis"][1:]]},  # ragged
        {"basis": UNIT_BASIS},  # no center
        {"center": ["0", "0", "0"]},  # no basis
        {**HSET_A_DEFINITION, "basis": "I"},
        [HSET_A_DEFINITION["center"], HSET_A_DEFINITION["basis"]],  # not an object
        {**HSET_A_DEFINITION, "center": ["0.81", "one", "0.975"]},  # not a decimal
    ])
    def test_definition_must_be_lists_of_decimal_strings(self, definition):
        with pytest.raises(IntervalError):
            HSet("bad", definition)

    @pytest.mark.parametrize("edit, names", [
        pytest.param({"center": ["x", "1", "1"]},
                     "h-set 'a': center[0]: not a decimal literal: 'x'", id="center"),
        pytest.param({"basis": [*HSET_A_DEFINITION["basis"][:2], ["0", "1e400", "-0.06"]]},
                     "h-set 'a': basis[2][1]: literal out of double range: '1e400'",
                     id="basis"),
        pytest.param({"center": ["1/3", "1", "1"]},
                     "h-set 'a': center[0]: not a decimal literal: '1/3'", id="fraction"),
        pytest.param({"basis": [["1e-310", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                     "h-set 'a': basis inverse: value out of double range: about 2**1029",
                     id="inverse"),
    ])
    def test_decimal_errors_name_the_set_and_field(self, edit, names):
        with pytest.raises(IntervalError) as e:
            HSet("a", {**HSET_A_DEFINITION, **edit})
        assert str(e.value) == names


class TestConfigFile:
    def test_save_load_roundtrip(self, tmp_path):
        a, b = make_paper_hsets()
        path = tmp_path / "hsets.json"
        save_hsets(path, {"a": a, "b": b})
        loaded = load_hsets(path)
        assert set(loaded) == {"a", "b"}
        for name in ("a", "b"):
            orig, back = {"a": a, "b": b}[name], loaded[name]
            assert back.center == orig.center
            assert back.basis == orig.basis
            assert (back.u, back.s) == (orig.u, orig.s)


class TestHSetFamily:
    """`hset_family` is the one check on the sets a proof may run on."""

    def test_shipped_pair(self, paper_hsets):
        assert hset_family(DEFINITIONS) == paper_hsets

    @pytest.mark.parametrize("definitions, why", [
        pytest.param([HSET_A_DEFINITION, HSET_B_DEFINITION], "JSON object",
                     id="not-an-object"),
        pytest.param({**DEFINITIONS, "c": {"center": ["0", "0"],
                                           "basis": [["1", "0"], ["0", "1"]],
                                           "u": 1, "s": 1}},
                     "must be 3-dimensional: {'c': 2}", id="two-dimensional"),
        pytest.param({"a": HSET_A_DEFINITION}, "two or more sets", id="missing-b"),
        pytest.param({**DEFINITIONS, "ab": HSET_A_DEFINITION}, "named by one letter",
                     id="two-letter-name"),
        pytest.param({**DEFINITIONS, "b": {**HSET_B_DEFINITION, "u": 1, "s": 2}},
                     "differ in (u, s): {'a': (2, 1), 'b': (1, 2)}", id="mixed-u-s"),
        # the shift on n symbols needs n disjoint sets: a copy of a, or a c
        # whose y-range [1.0725, 1.4375] meets a's and b's, is no new symbol
        pytest.param({**DEFINITIONS, "c": HSET_A_DEFINITION},
                     "supports must be disjoint, overlapping: ['ac']", id="copy-of-a"),
        pytest.param({**DEFINITIONS, "c": {**HSET_A_DEFINITION,
                                           "center": ["0.81", "1.255", "0.975"]}},
                     "supports must be disjoint, overlapping: ['ac', 'bc']",
                     id="overlapping-c"),
    ])
    def test_rejects(self, definitions, why):
        with pytest.raises(IntervalError) as e:
            hset_family(definitions)
        assert why in str(e.value)


class TestOneConstructor:
    """`HSet(name, definition)` keeps the definition it was given, and
    `to_definition` echoes it exactly."""

    def _same_chart(self, h, k, rng):
        assert h.to_definition() == k.to_definition()
        assert (h.center, h.basis, h.basis_inv, h.u, h.s) == (
            k.center, k.basis, k.basis_inv, k.u, k.s)
        for _ in range(20):
            lo = rng.uniform(-1, 0.8, size=3)
            X = Box([Interval(v, v + 0.2) for v in lo])
            assert h.world_from_local(X) == k.world_from_local(X)
            assert h.local_from_world(X) == k.local_from_world(X)

    def test_echo_is_the_definition(self):
        for name, h in zip("ab", make_paper_hsets()):
            assert h.to_definition() == DEFINITIONS[name]
            assert list(h.to_definition()) == ["center", "basis", "u", "s"]

    def test_round_trip_through_the_echo(self, paper_hsets, rng):
        for name, h in paper_hsets.items():
            back = HSet(name, h.to_definition())
            assert back == h
            self._same_chart(h, back, rng)

    def test_key_order_does_not_matter(self, paper_hsets, rng, tmp_path):
        path = tmp_path / "hsets.json"
        path.write_text(json.dumps({
            name: {k: h.to_definition()[k] for k in ("s", "basis", "u", "center")}
            for name, h in paper_hsets.items()}))
        loaded = load_hsets(path)
        for name, h in paper_hsets.items():
            assert list(loaded[name].to_definition()) == ["center", "basis", "u", "s"]
            self._same_chart(h, loaded[name], rng)

    def test_defaults_are_echoed(self):
        d = at_origin(UNIT_BASIS)
        assert HSet("u", d).to_definition() == {**d, "u": 2, "s": 1}

    def test_definition_is_copied_both_ways(self):
        d = json.loads(json.dumps(HSET_A_DEFINITION))
        h = HSet("a", d)
        d["center"][0] = "9"
        d["basis"][0][0] = "9"
        echo = h.to_definition()
        echo["basis"][1][0] = "7"
        assert h.to_definition() == HSET_A_DEFINITION
