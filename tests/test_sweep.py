"""The coarse-to-fine `sweep` against the row-major loop it replaced.

`flat_sweep` decides every cell by its own enclosure, in row-major order, and
keeps the first failing cells: the three checks must check and fail the same
cells, with the same witnesses, under either sweep.  Only the split of the
accepted cells between names may differ, since `sweep` counts every cell of
an accepted block under the name of the test the block passed.
"""

from collections import Counter

import pytest

from henoncert import (
    Box,
    HenonMap,
    Interval,
    IteratedMap,
    LinearMap,
    check_condition_II,
    check_map_pair,
    paper_map_pairs,
    subdivide_box,
    verify_covering,
)
from henoncert import covering, hyperbolicity
from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION, HSet
from henoncert.linalg import IMatrix
from henoncert.sweep import sweep

UNIT_BASIS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def flat_sweep(X, grid, predicate, max_witnesses):
    """Reference: each cell of `subdivide_box(X, grid)` in row-major order,
    decided by its own enclosure; the first `max_witnesses` failures kept."""
    counts, witnesses = Counter(), []
    for index, box in enumerate(subdivide_box(X, grid)):
        verdict = predicate(box)
        if isinstance(verdict, str):
            counts[verdict] += 1
            continue
        counts["failed"] += 1
        if len(witnesses) < max_witnesses:
            witnesses.append({"index": index, **verdict})
    return counts, witnesses


def _paper(iterate=4, u=2, s=1):
    hsets = {
        name: HSet(name, {**d, "u": u, "s": s})
        for name, d in (("a", HSET_A_DEFINITION), ("b", HSET_B_DEFINITION))
    }
    return paper_map_pairs(IteratedMap(HenonMap(), k=iterate), hsets)


def _toys():
    N = HSet("u", {"center": ["0", "0", "0"], "basis": UNIT_BASIS})
    matrices = {
        "identity": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "expand": [[3, 0, 0], [0, 3, 0], [0, 0, 0.25]],
        "shear": [[2, 0.7, 0], [-0.4, 1.5, 0.2], [0, 0.3, 0.5]],
        "half": [[0.5, 0, 0], [0, 1.3, 0], [0.2, 0, 0.5]],
    }
    return {k: IteratedMap(LinearMap(m)).conjugated(N, N) for k, m in matrices.items()}


MAP_SETS = {
    "paper": _paper,
    "paper-u1s2": lambda: _paper(u=1, s=2),
    "iterate-2": lambda: _paper(iterate=2),
    "iterate-3": lambda: _paper(iterate=3),
    "toys": _toys,
}
BODY, FACE, HYP = (7, 5, 3), (3, 5), (7, 4, 9)


def _runs(maps, cap):
    """Every covering certificate and cone outcome of `maps`, with timings
    dropped and the accepted cells counted together, not by name."""
    out = []
    for f in maps.values():
        cert = verify_covering(f, BODY, FACE, cap).to_dict()
        cert.pop("wall_time")
        ci = cert["condition_I"]
        ci["accepted"] = ci.pop("outside_unstable") + ci.pop("inside_stable")
        cone = check_map_pair(f, HYP, cap).to_dict()
        cone["accepted"] = cone.pop("skipped_disjoint") + cone.pop("positive_definite")
        out += [cert, cone]
    return out


@pytest.mark.parametrize("cap", [1, 3, 20])
@pytest.mark.parametrize("maps", list(MAP_SETS))
def test_checks_match_flat_reference(maps, cap, monkeypatch):
    # equal checked and failed counts, witnesses (index and details) and
    # verdicts; the accepted counts are compared in total
    pairs = MAP_SETS[maps]()
    tree = _runs(pairs, cap)
    monkeypatch.setattr(covering, "sweep", flat_sweep)
    monkeypatch.setattr(hyperbolicity, "sweep", flat_sweep)
    assert tree == _runs(pairs, cap)


X = Box([Interval(-1.0, 1.0), Interval(0.1, 0.7), Interval(-3.0, 2.0)])
GRID = (5, 3, 7)


def _bits(box):
    return [(c.lo.hex(), c.hi.hex()) for c in box]


class TestEngine:
    def test_leaves_are_the_row_major_cells(self):
        def fail_everywhere(box):
            return {"bits": _bits(box)}

        counts, witnesses = sweep(X, GRID, fail_everywhere, 10**6)
        cells = [_bits(b) for b in subdivide_box(X, GRID)]
        assert counts == {"failed": len(cells)}
        assert [w["index"] for w in witnesses] == list(range(len(cells)))
        assert [w["bits"] for w in witnesses] == cells

    def test_block_verdict_counts_all_its_cells(self):
        cells = set(subdivide_box(X, GRID))
        calls = Counter()

        def left(box):
            calls[box in cells] += 1
            if box[0].hi < 0.0:  # the first two of five slabs along axis 0
                return "left"
            return "right" if box in cells else {"undecided": True}

        counts, witnesses = sweep(X, GRID, left, 5)
        assert counts == {"left": 2 * 3 * 7, "right": 3 * 3 * 7}
        assert witnesses == []
        # the left slabs were decided as blocks: only the right ones reached cells
        assert calls[True] == 3 * 3 * 7

    def test_block_under_any_name_is_not_split(self):
        # slabs 0-1 of axis 0 pass one test, slabs 3-4 another, slab 2 none
        visited = []

        def two_tests(box):
            visited.append(box)
            if box[0].hi < 0.0:
                return "left"
            if box[0].lo > 0.0:
                return "right"
            return {"lo": box[0].lo}

        counts, witnesses = sweep(X, GRID, two_tests, 10**6)
        assert counts == {"left": 2 * 3 * 7, "right": 2 * 3 * 7, "failed": 3 * 7}
        middle = [i for i, b in enumerate(subdivide_box(X, GRID))
                  if b[0].lo < 0.0 < b[0].hi]
        assert [w["index"] for w in witnesses] == middle
        # no visited box lies inside another box that passed a test
        passed = [b for b in visited if b[0].hi < 0.0 or b[0].lo > 0.0]
        for outer in passed:
            assert not any(outer.contains_box(b) and b != outer for b in visited)
        # and each box that passed was a block of several cells
        cells = set(subdivide_box(X, GRID))
        assert passed and not any(b in cells for b in passed)

    def test_witnesses_are_the_smallest_failing_indices(self):
        cells = list(subdivide_box(X, GRID))
        failing = {i for i in range(len(cells)) if (i * 7) % 11 in (2, 5, 6)}
        index = {tuple(_bits(b)): i for i, b in enumerate(cells)}

        def some_fail(box):
            i = index.get(tuple(_bits(box)))
            if i is None:  # a block of several cells
                return {"i": None}
            return {"i": i} if i in failing else "ok"

        for cap in (0, 1, 4, 1000):
            counts, witnesses = sweep(X, GRID, some_fail, cap)
            assert counts == {"failed": len(failing), "ok": len(cells) - len(failing)}
            smallest = sorted(failing)[:cap]
            assert [w["index"] for w in witnesses] == smallest
            assert [w["i"] for w in witnesses] == smallest
            assert (counts, witnesses) == flat_sweep(X, GRID, some_fail, cap)

    def test_condition_II_shares_one_cap(self):
        # every face part of the identity fails; the first face uses the cap,
        # so the other three sweep with a cap of 0 and list nothing
        f = _toys()["identity"]
        A = IMatrix.from_floats([[1.0, 0.0], [0.0, 1.0]])
        out = check_condition_II(f, A, (3, 3), 3)
        assert out.failed == 4 * 9
        assert [(w["face_axis"], w["face_sign"], w["index"]) for w in out.failures] == [
            (0, -1.0, 0), (0, -1.0, 1), (0, -1.0, 2)
        ]

    def test_single_cell_grid_is_one_leaf(self):
        calls = []

        def record(box):
            calls.append(box)
            return {"x": 1}

        counts, witnesses = sweep(X, (1, 1, 1), record, 5)
        assert calls == [X]
        assert counts == {"failed": 1}
        assert witnesses == [{"index": 0, "x": 1}]
