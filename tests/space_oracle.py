"""Reference count and enumeration for :class:`repro.core.autotune.SearchSpace`.

:func:`oracle_size` is the loop ``SearchSpace.size()`` ran before it counted
in closed form: one Python step per (shared memory, e, tile, thread shape)
combination, through the scalar predicates ``_tile_ok`` and ``_thread_ok``.
:func:`oracle_configs` enumerates the configurations that loop counts, so a
test can check the count against membership as well as against the loop.
The identity tests in ``tests/test_autotune_space.py`` and
``benchmarks/bench_explorer.py`` compare against them.

:func:`oracle_neighbor_batch` is ``SearchSpace.neighbor_batch`` as it was
before it perturbed every row and every round in one pass: a loop over the
knobs inside :func:`oracle_perturb`, and a retry loop that perturbs only the
rows still without a feasible candidate, one round at a time.
``tests/test_vectorized_search.py`` asserts row-for-row equality with it.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional

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


#: knobs perturbed by :func:`oracle_perturb`, in ``SearchSpace.neighbor`` order.
_KNOBS = ("tile_x", "tile_y", "tile_z", "threads", "layout", "smem", "unroll", "order")


def _adjacent_in_sorted(
    opts: np.ndarray, values: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Vectorised ``SearchSpace._adjacent`` over a sorted option array.

    ``values`` must be members of ``opts``; ``u`` in ``[0, 1)`` picks the step
    direction where both neighbours exist (``u < 0.5`` steps down).
    """
    n = opts.shape[0]
    if n == 1:
        return values.copy()
    idx = np.searchsorted(opts, values)
    step = np.where(u < 0.5, -1, 1)
    step = np.where(idx == 0, 1, step)
    step = np.where(idx == n - 1, -1, step)
    return opts[idx + step]


def oracle_perturb(space: SearchSpace, base: ConfigArray, u: np.ndarray) -> ConfigArray:
    """One neighbour attempt per row: perturb one knob to an adjacent
    legal value, driven by the per-row uniforms ``u`` (shape ``(m, 3)``)."""
    knobs = list(_KNOBS)
    if space.algorithm == "winograd" and len(space._e_opts) > 1:
        knobs.append("e")
    cand = base.copy()
    knob = np.minimum((u[:, 0] * len(knobs)).astype(np.intp), len(knobs) - 1)
    u_alt, u_dir = u[:, 1], u[:, 2]
    axis_names = ("x", "y", "z")
    for k, name in enumerate(knobs):
        rows = np.flatnonzero(knob == k)
        if rows.size == 0:
            continue
        if name in ("tile_x", "tile_y", "tile_z"):
            axis = ("tile_x", "tile_y", "tile_z").index(name)
            cur = getattr(base, name)[rows]
            new = _adjacent_in_sorted(space._tile_arrs[axis], cur, u_dir[rows])
            getattr(cand, name)[rows] = new
            getattr(cand, f"threads_{axis_names[axis]}")[rows] = 1
        elif name == "threads":
            axis_pick = np.minimum((u_alt[rows] * 3).astype(np.intp), 2)
            for axis in range(3):
                sub = rows[axis_pick == axis]
                if sub.size == 0:
                    continue
                table, lengths = space._thread_tables[axis]
                tile_arr = space._tile_arrs[axis]
                tname = f"tile_{axis_names[axis]}"
                thname = f"threads_{axis_names[axis]}"
                tile_idx = np.searchsorted(tile_arr, getattr(base, tname)[sub])
                cur = getattr(base, thname)[sub]
                opt_rows = table[tile_idx]
                n_opts = lengths[tile_idx]
                idx = (opt_rows < cur[:, None]).sum(axis=1)
                step = np.where(u_dir[sub] < 0.5, -1, 1)
                step = np.where(idx == 0, 1, step)
                step = np.where(idx == n_opts - 1, -1, step)
                step = np.where(n_opts == 1, 0, step)
                getattr(cand, thname)[sub] = opt_rows[
                    np.arange(sub.size), idx + step
                ]
        elif name == "layout":
            alt = np.minimum((u_alt[rows] * 2).astype(np.int64), 1)
            cur = base.layout[rows]
            cand.layout[rows] = alt + (alt >= cur)
        elif name == "smem":
            cand.smem_per_block[rows] = _adjacent_in_sorted(
                space._smem_arr, base.smem_per_block[rows], u_dir[rows]
            )
        elif name == "unroll":
            cand.unroll[rows] = _adjacent_in_sorted(
                space._unroll_arr, base.unroll[rows], u_dir[rows]
            )
        elif name == "order":
            n_alt = len(space._orders) - 1
            alt = np.minimum((u_alt[rows] * n_alt).astype(np.int64), n_alt - 1)
            cur = base.order[rows]
            cand.order[rows] = alt + (alt >= cur)
        else:  # "e"
            cand.e[rows] = _adjacent_in_sorted(
                space._e_arr, base.e[rows], u_dir[rows]
            )
    return cand


def oracle_feasible(space: SearchSpace, cand: ConfigArray) -> np.ndarray:
    """The feasibility masks a perturbed row must pass."""
    return space.tile_ok_mask(
        cand.tile_x, cand.tile_y, cand.tile_z, cand.smem_per_block
    ) & space.thread_ok_mask(cand.threads_x, cand.threads_y, cand.threads_z)


def oracle_neighbor_batch(
    space: SearchSpace,
    configs: ConfigArray,
    uniforms: np.ndarray,
    fallback_gen: Optional[np.random.Generator] = None,
    assume_contained: bool = False,
) -> ConfigArray:
    """``SearchSpace.neighbor_batch`` with the per-round retry loop."""
    n = len(configs)
    rounds = uniforms.shape[1] // space.DRAWS_PER_NEIGHBOR_ROUND
    result = configs.copy()
    if assume_contained:
        pending = np.arange(n, dtype=np.intp)
    else:
        pending = np.flatnonzero(space.contains_batch(configs))
    resolved = np.zeros(n, dtype=bool)
    for r in range(rounds):
        if pending.size == 0:
            break
        cols = slice(
            space.DRAWS_PER_NEIGHBOR_ROUND * r,
            space.DRAWS_PER_NEIGHBOR_ROUND * (r + 1),
        )
        cand = oracle_perturb(space, configs.take(pending), uniforms[pending, cols])
        ok = oracle_feasible(space, cand)
        done = pending[ok]
        if done.size:
            resolved[done] = True
            for name in ConfigArray.FIELDS:
                getattr(result, name)[done] = getattr(cand, name)[ok]
        pending = pending[~ok]
    failed = np.flatnonzero(~resolved)
    if failed.size and fallback_gen is not None:
        fresh = space.sample_batch(fallback_gen, failed.size)
        for name in ConfigArray.FIELDS:
            getattr(result, name)[failed] = getattr(fresh, name)
    return result
