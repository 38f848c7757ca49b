"""Per-layer micro-timings, in microseconds per operation, on seeded boxes.

The boxes are drawn with `random.Random(seed)` from the sub-boxes of the
workload's grids, so the operands are the ones the workload evaluates.  Each
operation runs over all samples in a loop sized to take at least MIN_SECONDS;
the figure is the median of REPEATS such loops.
"""

from __future__ import annotations

import operator
import random
import statistics
import time

SAMPLES = 64
MIN_SECONDS = 0.02
REPEATS = 5


def _loop_seconds(calls, loops: int) -> float:
    t0 = time.perf_counter()
    for _ in range(loops):
        for fn, args in calls:
            fn(*args)
    return time.perf_counter() - t0


def per_op_us(calls) -> float:
    loops = 1
    while (t := _loop_seconds(calls, loops)) < MIN_SECONDS:
        loops *= 2
    times = [t] + [_loop_seconds(calls, loops) for _ in range(REPEATS - 1)]
    return statistics.median(times) / (loops * len(calls)) * 1e6


def operations(seed: int, grids) -> dict:
    """name -> list of (callable, args), one entry per seeded sample."""
    from henoncert import (Box, HenonMap, cone_matrix, cone_quadratic_form,
                           is_positive_definite, make_paper_hsets,
                           paper_map_pairs, subdivide_box)
    from henoncert.drivers import default_map

    rng = random.Random(seed)
    unit = Box.cube(-1.0, 1.0, 3)
    pool = [P for g in grids for P in subdivide_box(unit, g)]
    local = rng.sample(pool, SAMPLES)
    a, b = make_paper_hsets()
    charts = [(a, b), (a, a), (b, a), (b, b)]
    maps = list(paper_map_pairs(default_map(), {"a": a, "b": b}).values())
    base = HenonMap()
    Q = cone_quadratic_form()

    world = [charts[k % 4][0].world_from_local(P) for k, P in enumerate(local)]
    ivs = [(W[k % 3], W[(k + 1) % 3]) for k, W in enumerate(world)]
    jac = [maps[k % 4].jacobian(P) for k, P in enumerate(local)]
    cone = [cone_matrix(J, Q) for J in jac]
    return {
        "intervals.add_us": [(operator.add, xy) for xy in ivs],
        "intervals.mul_us": [(operator.mul, xy) for xy in ivs],
        "intervals.sqr_us": [(x.sqr, ()) for x, _ in ivs],
        "linalg.matmul_us": [(operator.matmul, (J, jac[k - 1]))
                             for k, J in enumerate(jac)],
        "linalg.matvec_us": [(operator.matmul, (charts[k % 4][0].basis, P))
                             for k, P in enumerate(local)],
        "linalg.is_pd_us": [(is_positive_definite, (S,)) for S in cone],
        "hsets.world_from_local_us": [(charts[k % 4][0].world_from_local, (P,))
                                      for k, P in enumerate(local)],
        "hsets.local_from_world_us": [(charts[k % 4][1].local_from_world, (W,))
                                      for k, W in enumerate(world)],
        "henon.eval_box_us": [(base.eval_box, (W,)) for W in world],
        "henon.eval_us": [(maps[k % 4].eval, (P,)) for k, P in enumerate(local)],
        "henon.jacobian_us": [(maps[k % 4].jacobian, (P,))
                              for k, P in enumerate(local)],
        "hyperbolicity.cone_matrix_us": [(cone_matrix, (J, Q)) for J in jac],
    }


def micro_timings(seed: int, grids) -> dict:
    return {name: per_op_us(calls)
            for name, calls in operations(seed, grids).items()}
