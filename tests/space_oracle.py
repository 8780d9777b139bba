"""Reference count and enumeration for :class:`repro.core.autotune.SearchSpace`.

:func:`oracle_size` is the loop ``SearchSpace.size()`` ran before it counted
in closed form: one Python step per (shared memory, e, tile, thread shape)
combination, through the scalar predicates ``_tile_ok`` and ``_thread_ok``.
:func:`oracle_configs` enumerates the configurations that loop counts, so a
test can check the count against membership as well as against the loop.
The identity tests in ``tests/test_autotune_space.py`` and
``benchmarks/bench_explorer.py`` compare against them.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

import numpy as np

from repro.core.autotune import ConfigArray, SearchSpace
from repro.core.autotune.space import _thread_options
from repro.gpusim import GTX_1080TI, V100
from repro.nets import MODEL_ZOO

#: the ConfigArray columns :func:`oracle_configs` fills per row, in order.
_ENUMERATED = (
    "tile_x", "tile_y", "tile_z", "threads_x", "threads_y", "threads_z",
    "layout", "unroll", "order",
)


def oracle_size(space: SearchSpace) -> int:
    """Number of configurations in ``space``, by enumeration."""
    total = 0
    per_layout_order_unroll = len(space._layouts) * len(space._orders) * len(space._unrolls)
    for smem in space._smem_opts:
        for _e in space._e_opts:
            for x in space._tile_x_opts:
                tx_opts = _thread_options(x)
                for y in space._tile_y_opts:
                    ty_opts = _thread_options(y)
                    for z in space._tile_z_opts:
                        if not space._tile_ok(x, y, z, smem):
                            continue
                        tz_opts = _thread_options(z)
                        thread_combos = sum(
                            1
                            for tx in tx_opts
                            for ty in ty_opts
                            for tz in tz_opts
                            if space._thread_ok(tx, ty, tz)
                        )
                        total += thread_combos * per_layout_order_unroll
    return total


def oracle_configs(space: SearchSpace) -> Iterator[ConfigArray]:
    """The configurations :func:`oracle_size` counts, one chunk per
    (shared memory, e) pair (an empty chunk where no tile fits)."""
    # Layout and loop order as their ConfigArray codes, unroll as its value.
    free = np.asarray(
        list(
            itertools.product(
                range(len(space._layouts)), space._unrolls, range(len(space._orders))
            )
        ),
        dtype=np.int64,
    )
    for smem in space._smem_opts:
        for e in space._e_opts:
            shapes = np.asarray(
                [
                    (x, y, z, tx, ty, tz)
                    for x in space._tile_x_opts
                    for y in space._tile_y_opts
                    for z in space._tile_z_opts
                    if space._tile_ok(x, y, z, smem)
                    for tx in _thread_options(x)
                    for ty in _thread_options(y)
                    for tz in _thread_options(z)
                    if space._thread_ok(tx, ty, tz)
                ],
                dtype=np.int64,
            ).reshape(-1, 6)
            rows = np.hstack(
                [np.repeat(shapes, len(free), axis=0), np.tile(free, (len(shapes), 1))]
            )
            chunk = ConfigArray.filled(len(rows), space.algorithm)
            for column, name in enumerate(_ENUMERATED):
                setattr(chunk, name, rows[:, column])
            chunk.smem_per_block[:] = smem
            chunk.e[:] = e
            yield chunk


def zoo_spaces() -> List[SearchSpace]:
    """Every distinct zoo layer on both GPUs: the direct space, plus the
    Winograd space for 3x3 stride-1 layers (the ones ``ModelRunner`` tunes
    with Winograd), each pruned and unpruned."""
    params = dict.fromkeys(
        layer.params() for factory in MODEL_ZOO.values() for layer in factory().layers
    )
    spaces = []
    for p in params:
        algorithms = ["direct"]
        if p.winograd_compatible() and p.ker_height == 3:
            algorithms.append("winograd")
        for spec in (GTX_1080TI, V100):
            for algorithm in algorithms:
                for pruned in (False, True):
                    spaces.append(SearchSpace(p, spec, algorithm, pruned=pruned))
    return spaces
