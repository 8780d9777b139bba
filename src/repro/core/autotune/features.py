"""Feature extraction for the learned cost model.

The cost model never sees raw hardware counters — it learns from a fixed
feature vector derived from the configuration and the problem, mirroring the
knob/curve features TVM feeds XGBoost.  Features are cheap analytical
quantities (tile extents, thread counts, shared-memory pressure, estimated
traffic, arithmetic intensity, layout/order one-hots); they intentionally
do *not* include the simulator's efficiency constants, so the model has to
learn the mapping from measurements.

Two equivalent paths produce the features:

* per-row — :func:`feature_vector` computes one configuration's vector;
* column-wise — :func:`feature_matrix` called with a
  :class:`~repro.core.autotune.config.ConfigArray` computes all 21 features
  over whole NumPy columns at once (the search-side hot path).  The two are
  bit-identical (property-tested): integer quantities are exact in int64
  (guarded by the same overflow bound as the vectorised lowering), float
  expressions evaluate in the same order, and the seven ``log2`` columns go
  through one sort together and one ``math.log2`` call per *distinct* value,
  so no platform-dependent vectorised transcendental can introduce a stray
  ulp.  The explorer scores a few rows per call, so the column-wise path
  keeps its NumPy calls few: the tile arithmetic runs on one ``(n, 3)``
  block, and the one-hot layout columns are one comparison.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ...conv.tensor import ConvParams, Layout
from ...gpusim.spec import GPUSpec
from ...obs.metrics import MetricsRegistry
from ..dataflow.common import OutputTile, ceil_div
from ..dataflow.direct import direct_dataflow_io
from ..dataflow.winograd import winograd_dataflow_io
from .config import (
    _ALGO_CODE,
    _LAYOUT_CODE,
    ORDER_CONTIGUOUS,
    ConfigArray,
    Configuration,
    _io_may_overflow_int64,
)

__all__ = ["FEATURE_NAMES", "feature_vector", "feature_matrix", "FeatureCache"]


FEATURE_NAMES: List[str] = [
    "log_tile_x",
    "log_tile_y",
    "log_tile_z",
    "log_tile_outputs",
    "log_threads",
    "threads_warp_remainder",
    "log_blocks",
    "blocks_per_sm_wave",
    "smem_fraction",
    "smem_pressure",
    "log_traffic",
    "arithmetic_intensity",
    "optimality_residual",
    "halo_overhead",
    "unroll",
    "order_contiguous",
    "layout_chw",
    "layout_cwh",
    "layout_hwc",
    "is_winograd",
    "winograd_e",
]


#: the feature columns :func:`_log_columns` fills, in its column order.
_LOG_FEATURES = [
    FEATURE_NAMES.index(name)
    for name in (
        "log_tile_x",
        "log_tile_y",
        "log_tile_z",
        "log_tile_outputs",
        "log_threads",
        "log_blocks",
        "log_traffic",
    )
]
#: layout codes of the ``layout_chw``, ``layout_cwh`` and ``layout_hwc`` columns.
_LAYOUT_ONE_HOT = np.array([_LAYOUT_CODE[lay] for lay in (Layout.CHW, Layout.CWH, Layout.HWC)])


def _log(v: float) -> float:
    return math.log2(max(float(v), 1e-12))


def _log_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per-element ``_log`` over stacked columns, bit-identical to the scalar
    path; returns one row per column.

    The distinct values of the ``log2`` feature columns are few (they come
    from small option tables), so all columns go through one sort and one
    ``math.log2`` call per distinct value — the same call on the same float
    as :func:`_log`, so no platform-dependent vectorised ``np.log2`` can
    introduce a stray ulp.  (``np.unique(..., return_inverse=True)`` gives
    the same bits at several times the cost per call.)
    """
    a = np.maximum(np.stack(columns), 1e-12).ravel()
    order = np.argsort(a)
    sorted_a = a[order]
    first = np.empty(a.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_a[1:], sorted_a[:-1], out=first[1:])
    logs = np.fromiter(map(math.log2, sorted_a[first].tolist()), np.float64)
    out = np.empty(a.size, dtype=np.float64)
    out[order] = logs[np.cumsum(first) - 1]
    return out.reshape(len(columns), -1)


def feature_vector(
    config: Configuration, params: ConvParams, spec: GPUSpec
) -> np.ndarray:
    """Return the feature vector of one configuration (see FEATURE_NAMES)."""
    tile = OutputTile(config.tile_x, config.tile_y, config.tile_z).clip_to(params)
    threads = config.threads_per_block
    blocks = (
        ceil_div(params.out_width, tile.x)
        * ceil_div(params.out_height, tile.y)
        * ceil_div(params.out_channels, tile.z)
        * params.batch
    )

    if config.algorithm == "winograd" and params.winograd_compatible():
        io = winograd_dataflow_io(params, tile, config.e)
        flops = 2.0 * params.macs / max(1.0, (config.e**2) / (config.e + params.ker_height - 1) ** 2 * 4)
        is_wino = 1.0
    else:
        io = direct_dataflow_io(params, tile)
        flops = float(params.flops)
        is_wino = 0.0
    traffic_bytes = io.total * spec.dtype_size

    halo = tile.input_footprint(params)
    smem_elements = tile.outputs + halo + params.ker_height * params.ker_width * tile.z
    smem_bytes = smem_elements * spec.dtype_size
    r = params.reuse_factor
    residual = abs(tile.x * tile.y - r * tile.z) / max(1.0, r * tile.z)

    contiguous_axis = {Layout.CHW: "x", Layout.CWH: "y", Layout.HWC: "z"}[config.layout]
    order_contig = 1.0 if config.loop_order.endswith(contiguous_axis) else 0.0

    values = [
        _log(tile.x),
        _log(tile.y),
        _log(tile.z),
        _log(tile.outputs),
        _log(threads),
        float(threads % spec.warp_size) / spec.warp_size,
        _log(blocks),
        min(4.0, blocks / spec.num_sms),
        config.smem_per_block / spec.shared_mem_per_sm,
        min(4.0, smem_bytes / max(1, config.smem_per_block)),
        _log(traffic_bytes),
        min(512.0, flops / max(1.0, traffic_bytes)),
        min(4.0, residual),
        min(8.0, halo / max(1, tile.x * tile.y)),
        float(config.unroll),
        order_contig,
        1.0 if config.layout == Layout.CHW else 0.0,
        1.0 if config.layout == Layout.CWH else 0.0,
        1.0 if config.layout == Layout.HWC else 0.0,
        is_wino,
        float(config.e) if is_wino else 0.0,
    ]
    return np.asarray(values, dtype=np.float64)


def _feature_matrix_soa(
    configs: ConfigArray, params: ConvParams, spec: GPUSpec
) -> np.ndarray:
    """Column-wise :func:`feature_vector` over a :class:`ConfigArray`.

    Every expression below is the whole-column transliteration of one line of
    the scalar function; the comments in :func:`feature_vector` are the
    reference, and the bit-identity property tests in
    ``tests/test_vectorized_search.py`` enforce the contract.
    """
    p = params
    rows = configs.rows
    n = rows.shape[0]
    out = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    # Clipped tile (OutputTile.clip_to) and launch shape, on the (n, 3)
    # block of tile columns.
    extents = np.array([p.out_width, p.out_height, p.out_channels])
    xyz = np.minimum(rows[:, 1:4], extents)
    x, y, z = xyz.T
    outputs = xyz.prod(axis=1)
    threads = rows[:, 4:7].prod(axis=1)
    blocks = (-(-extents // xyz)).prod(axis=1) * p.batch
    smem = configs.smem_per_block

    wino = (configs.algo == _ALGO_CODE["winograd"]) & p.winograd_compatible()
    # The x' * y' input halo (OutputTile.input_footprint) feeds both the
    # direct-dataflow reads and the halo/smem features below.
    halo = ((xyz[:, :2] - 1) * p.stride + [p.ker_width, p.ker_height]).prod(axis=1)
    # Direct-dataflow I/O (Eq. 20) and FLOPs for every row, then the Winograd
    # rows (Eq. 22 / the e-dependent FLOP discount) overwrite their slots.
    input_reads = (blocks * (halo * p.in_channels)).astype(np.float64)
    weight_reads = (blocks * (p.ker_height * p.ker_width * p.in_channels * z)).astype(
        np.float64
    )
    flops = np.full(n, float(p.flops))
    if wino.any():
        e = configs.e[wino]
        r_k = p.ker_height
        halo_w = (x[wino] + r_k - 1) * (y[wino] + r_k - 1)
        input_reads[wino] = (blocks[wino] * halo_w * p.in_channels).astype(np.float64)
        weight_reads[wino] = (
            blocks[wino] * z[wino] * r_k * r_k * p.in_channels
        ).astype(np.float64)
        flops[wino] = 2.0 * p.macs / np.maximum(1.0, e**2 / (e + r_k - 1) ** 2 * 4)
    # IOVolume.total evaluates ((input + weight) + output) + extra.
    traffic_bytes = (
        input_reads + weight_reads + float(p.output_elements) + 0.0
    ) * spec.dtype_size

    smem_bytes = (outputs + halo + p.ker_height * p.ker_width * z) * spec.dtype_size
    r = p.reuse_factor
    xy = x * y
    residual = np.abs(xy - r * z) / np.maximum(1.0, r * z)

    out[:, _LOG_FEATURES] = _log_columns(
        (x, y, z, outputs, threads, blocks, traffic_bytes)
    ).T
    out[:, 5] = (threads % spec.warp_size).astype(np.float64) / spec.warp_size
    out[:, 7] = np.minimum(4.0, blocks / spec.num_sms)
    out[:, 8] = smem / spec.shared_mem_per_sm
    out[:, 9] = np.minimum(4.0, smem_bytes / np.maximum(1, smem))
    out[:, 11] = np.minimum(512.0, flops / np.maximum(1.0, traffic_bytes))
    out[:, 12] = np.minimum(4.0, residual)
    out[:, 13] = np.minimum(8.0, halo / np.maximum(1, xy))
    out[:, 14] = configs.unroll
    out[:, 15] = ORDER_CONTIGUOUS[configs.layout, configs.order]
    out[:, 16:19] = configs.layout[:, None] == _LAYOUT_ONE_HOT
    out[:, 19] = wino
    out[:, 20] = np.where(wino, configs.e, 0.0)
    return out


def feature_matrix(
    configs: Union[ConfigArray, Sequence[Configuration]],
    params: ConvParams,
    spec: GPUSpec,
) -> np.ndarray:
    """Feature matrix of a batch of configurations.

    Accepts either a sequence of :class:`Configuration` (stacked per-row
    vectors, the reference path) or a :class:`ConfigArray` (column-wise fast
    path, bit-identical to the stacked rows).  Problems whose I/O products
    could overflow int64 take the per-row path, mirroring the vectorised
    lowering's guard.
    """
    if isinstance(configs, ConfigArray):
        if len(configs) == 0:
            return np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
        if _io_may_overflow_int64(params):
            return np.stack(
                [feature_vector(c, params, spec) for c in configs.to_configs()]
            )
        return _feature_matrix_soa(configs, params, spec)
    if not configs:
        return np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
    return np.stack([feature_vector(c, params, spec) for c in configs])


class FeatureCache:
    """Memoised :func:`feature_vector` for one ``(params, spec)`` problem.

    The scalar reference explorer
    (:class:`~repro.core.autotune.explorer.ScalarRandomWalkExplorer`)
    re-scores the configurations its walkers revisit, one row at a time.
    The cache computes each configuration's vector once (keyed by
    :meth:`Configuration.key`) and reuses the stored row.  ``matrix`` stacks
    the cached rows exactly like :func:`feature_matrix`, hence bit-identical
    features.

    A cache lives as long as the explorer that owns it, so it holds one row
    per distinct configuration that explorer has scored.  ``hits`` /
    ``misses`` count cache traffic.
    """

    def __init__(self, params: ConvParams, spec: GPUSpec) -> None:
        self.params = params
        self.spec = spec
        self._rows: Dict[Tuple, np.ndarray] = {}
        # Per-cache traffic counters live on a private metrics registry (the
        # counters are thread-safe and snapshot-able); ``hits``/``misses``
        # stay available as read-only views.
        self._metrics = MetricsRegistry()
        self._c_hits = self._metrics.counter("feature_cache.hits")
        self._c_misses = self._metrics.counter("feature_cache.misses")

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    def vector(self, config: Configuration) -> np.ndarray:
        key = config.key()
        row = self._rows.get(key)
        if row is None:
            self._c_misses.inc()
            row = feature_vector(config, self.params, self.spec)
            self._rows[key] = row
        else:
            self._c_hits.inc()
        return row

    def matrix(self, configs: Sequence[Configuration]) -> np.ndarray:
        if not configs:
            return np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
        return np.stack([self.vector(c) for c in configs])
