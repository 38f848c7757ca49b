"""The coarse-to-fine `sweep` against the row-major loop it replaced.

`flat_sweep` decides every cell by its own enclosure, in row-major order, and
keeps the first failing cells: the three checks must count and list the same
cells under either sweep.
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
    paper_map_pairs,
    subdivide_box,
    verify_covering,
)
from henoncert import covering, hyperbolicity
from henoncert.hsets import HSET_A_DEFINITION, HSET_B_DEFINITION, make_hset
from henoncert.hyperbolicity import check_map_pair
from henoncert.linalg import IMatrix
from henoncert.sweep import sweep

UNIT_BASIS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def flat_sweep(X, grid, predicate, max_witnesses):
    """Reference: each cell of `subdivide_box(X, grid)` in row-major order,
    decided by its own enclosure; the first `max_witnesses` failures kept."""
    counts, witnesses = Counter(), []
    for index, box in enumerate(subdivide_box(X, grid)):
        verdict = predicate(box, None, True)
        if isinstance(verdict, str):
            counts[verdict] += 1
            continue
        counts["failed"] += 1
        if len(witnesses) < max_witnesses:
            witnesses.append({"index": index, **verdict})
    return counts, witnesses


def _paper(iterate=4, u=2, s=1):
    hsets = {
        name: make_hset(name, d["center"], d["basis"], u=u, s=s)
        for name, d in (("a", HSET_A_DEFINITION), ("b", HSET_B_DEFINITION))
    }
    return paper_map_pairs(IteratedMap(HenonMap(), k=iterate), hsets)


def _toys():
    N = make_hset("u", ["0", "0", "0"], UNIT_BASIS)
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
    """Every covering certificate and cone outcome of `maps`, timings dropped."""
    out = []
    for label, f in maps.items():
        cert = verify_covering(f, BODY, FACE, cap).to_dict()
        cert.pop("wall_time")
        out += [cert, check_map_pair(label, f, HYP, cap).to_dict()]
    return out


@pytest.mark.parametrize("cap", [1, 3, 20])
@pytest.mark.parametrize("maps", list(MAP_SETS))
def test_checks_match_flat_reference(maps, cap, monkeypatch):
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
        leaves = {}

        def fail_everywhere(box, _, cell):
            if cell:
                leaves[len(leaves)] = box
                return {"bits": _bits(box)}
            return None

        counts, witnesses = sweep(X, GRID, fail_everywhere, 10**6)
        cells = [_bits(b) for b in subdivide_box(X, GRID)]
        assert counts == {"failed": len(cells)}
        assert [w["index"] for w in witnesses] == list(range(len(cells)))
        assert [w["bits"] for w in witnesses] == cells

    def test_block_verdict_counts_all_its_cells(self):
        calls = Counter()

        def left(box, _, cell):
            calls[cell] += 1
            if box[0].hi < 0.0:  # the first two of five slabs along axis 0
                return "left"
            return "right" if cell else None

        counts, witnesses = sweep(X, GRID, left, 5)
        assert counts == {"left": 2 * 3 * 7, "right": 3 * 3 * 7}
        assert witnesses == []
        # the left slabs were decided as blocks: only the right ones reached cells
        assert calls[True] == 3 * 3 * 7

    def test_hint_reaches_sub_blocks(self):
        seen = []

        def pass_own_box(box, hint, cell):
            seen.append((hint, box))
            return "cell" if cell else box

        counts, _ = sweep(X, GRID, pass_own_box, 5)
        assert counts == {"cell": 5 * 3 * 7}
        assert seen[0] == (None, X)
        for hint, box in seen[1:]:
            assert hint.contains_box(box) and hint != box

    def test_witnesses_are_the_smallest_failing_indices(self):
        cells = list(subdivide_box(X, GRID))
        failing = {i for i in range(len(cells)) if (i * 7) % 11 in (2, 5, 6)}
        index = {tuple(_bits(b)): i for i, b in enumerate(cells)}

        def some_fail(box, _, cell):
            if not cell:
                return None
            i = index[tuple(_bits(box))]
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

        def record(box, hint, cell):
            calls.append((box, hint, cell))
            return {"x": 1}

        counts, witnesses = sweep(X, (1, 1, 1), record, 5)
        assert calls == [(X, None, True)]
        assert counts == {"failed": 1}
        assert witnesses == [{"index": 0, "x": 1}]
