"""Tuning configurations (Section 6.1, Table 1).

A *configuration* is one concrete low-level implementation of a dataflow
template: the output tile ``(x, y, z)``, the per-axis thread counts
``(Nxt, Nyt, Nzt)``, the data layout, the shared memory allocated to each
thread block, and — for the Winograd template — the output tile extent ``e``.

:func:`build_profile` lowers a configuration to a
:class:`~repro.gpusim.kernels.KernelProfile` so the GPU simulator can
"measure" it; :class:`Measurer` wraps that in the interface the tuners use.

Measurement runs in two modes:

* scalar — :meth:`Measurer.measure` lowers and executes one configuration
  (the lowered profile is cached so a feasibility probe never lowers twice);
* batched — :meth:`Measurer.measure_batch` lowers a whole tuner batch with
  :func:`lower_batch` (NumPy array arithmetic, no per-configuration profile
  objects) and executes it through
  :meth:`~repro.gpusim.executor.GPUExecutor.run_batch`.  Results are
  bit-identical to the scalar path, including the deterministic noise term.

The search side works on :class:`ConfigArray`: a batch of configurations
as one ``(n, 12)`` int64 matrix, a row per configuration and a column per
knob, so taking, copying, selecting and stacking rows is one NumPy call.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...conv.tensor import ConvParams, Layout
from ...conv.winograd import winograd_flops
from ...gpusim.executor import ExecutionResult, GPUExecutor
from ...gpusim.kernels import (
    _LAYOUT_COALESCING,
    DATAFLOW_COMPUTE_EFF,
    DIRECT_KERNEL_NAME,
    KernelProfile,
    ProfileBatch,
    direct_dataflow_profile,
    winograd_dataflow_profile,
    winograd_kernel_name,
)
from ...gpusim.spec import GPUSpec
from ...obs.metrics import BATCH_SIZE_BOUNDS, NULL_COUNTER, NULL_HISTOGRAM
from ..dataflow.common import OutputTile

__all__ = [
    "Configuration",
    "ConfigArray",
    "build_profile",
    "lower_batch",
    "PendingBatch",
    "Measurer",
]

#: low-level knob gains shared by the scalar and the vectorised lowering.
_UNROLL_GAIN = {1: 0.88, 2: 0.96, 4: 1.0, 8: 0.94}
_CONTIGUOUS_AXIS = {Layout.CHW: "x", Layout.CWH: "y", Layout.HWC: "z"}
#: each layout by its value, the string ``as_dict`` writes.
_LAYOUT_OF_VALUE = {layout.value: layout for layout in Layout.all()}
#: final coalescing per (layout, loop-order-ends-on-contiguous-axis), built
#: with the exact scalar expression so both paths agree bit-for-bit.
_COALESCING_LUT = {
    (layout, ends): min(1.0, _LAYOUT_COALESCING[layout] * (1.0 if ends else 0.85))
    for layout in Layout.all()
    for ends in (True, False)
}


@dataclasses.dataclass(frozen=True)
class Configuration:
    """One point of the configuration space."""

    algorithm: str  # "direct" or "winograd"
    tile_x: int
    tile_y: int
    tile_z: int
    threads_x: int
    threads_y: int
    threads_z: int
    layout: Layout = Layout.CHW
    smem_per_block: int = 48 * 1024  # bytes (S_b in Table 1)
    e: int = 2  # Winograd output tile extent; ignored for "direct"
    unroll: int = 4  # inner-loop unroll factor
    loop_order: str = "zyx"  # traversal order of the tile loops

    #: loop orders explored by the low-level template (innermost axis last).
    LOOP_ORDERS = ("zyx", "zxy", "yxz", "yzx", "xyz", "xzy")
    #: unroll factors explored by the low-level template.
    UNROLL_FACTORS = (1, 2, 4, 8)

    def __post_init__(self) -> None:
        if self.algorithm not in ("direct", "winograd"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("tile_x", "tile_y", "tile_z", "threads_x", "threads_y", "threads_z"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.smem_per_block <= 0:
            raise ValueError("smem_per_block must be positive")
        if self.e < 1:
            raise ValueError("e must be >= 1")
        if self.unroll not in self.UNROLL_FACTORS:
            raise ValueError(f"unroll must be one of {self.UNROLL_FACTORS}")
        if self.loop_order not in self.LOOP_ORDERS:
            raise ValueError(f"loop_order must be one of {self.LOOP_ORDERS}")
        if not isinstance(self.layout, Layout):
            # A decoded layout string is a table lookup; the enum call costs
            # a third of a configuration decode.
            layout = _LAYOUT_OF_VALUE.get(self.layout) if type(self.layout) is str else None
            object.__setattr__(self, "layout", Layout(self.layout) if layout is None else layout)

    # ------------------------------------------------------------------ #
    @property
    def tile(self) -> OutputTile:
        return OutputTile(x=self.tile_x, y=self.tile_y, z=self.tile_z)

    @property
    def threads_per_block(self) -> int:
        return self.threads_x * self.threads_y * self.threads_z

    def smem_elements(self, dtype_size: int = 4) -> int:
        return self.smem_per_block // dtype_size

    def key(self) -> Tuple:
        """Hashable identity used for dataset de-duplication."""
        return (
            self.algorithm,
            self.tile_x,
            self.tile_y,
            self.tile_z,
            self.threads_x,
            self.threads_y,
            self.threads_z,
            self.layout.value,
            self.smem_per_block,
            self.e,
            self.unroll,
            self.loop_order,
        )

    def as_dict(self) -> Dict[str, object]:
        # Shallow field copy: every field is a scalar (layout normalised
        # below), and dataclasses.asdict's recursive deep copy dominates
        # record serialisation on the log-store append path.
        d = dict(self.__dict__)
        d["layout"] = self.layout.value
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Configuration":
        """The validated inverse of :meth:`as_dict`.

        Accepts and rejects exactly what ``Configuration(**d)`` does.  A
        dict holding every field (what ``as_dict`` writes) is filled by one
        dict update instead of the frozen ``__init__``'s per-field
        ``object.__setattr__``, then checked by ``__post_init__`` as the
        constructor checks it; anything else goes through the constructor.
        Every result and record decode builds one configuration per trial."""
        if type(d) is not dict or d.keys() != _CONFIG_FIELDS.keys():
            return cls(**d)
        config = object.__new__(cls)
        config.__dict__.update(_CONFIG_FIELDS)  # declaration order
        config.__dict__.update(d)
        config.__post_init__()
        return config

    def describe(self) -> str:
        base = (
            f"{self.algorithm}[tile={self.tile_x}x{self.tile_y}x{self.tile_z}, "
            f"threads={self.threads_x}x{self.threads_y}x{self.threads_z}, "
            f"layout={self.layout.value}, smem={self.smem_per_block // 1024}KiB"
        )
        if self.algorithm == "winograd":
            base += f", e={self.e}"
        return base + "]"


#: Configuration's field names in declaration order: the keys
#: Configuration.from_dict takes without the constructor.
_CONFIG_FIELDS: Dict[str, None] = dict.fromkeys(f.name for f in dataclasses.fields(Configuration))

#: code tables shared by every structure-of-arrays consumer.  The codes are
#: positions in the canonical option tuples, so ``ConfigArray`` round-trips
#: ``Configuration`` lists losslessly (property-tested).
ALGORITHMS: Tuple[str, ...] = ("direct", "winograd")
_ALGO_CODE = {name: i for i, name in enumerate(ALGORITHMS)}
_LAYOUTS: Tuple[Layout, ...] = Layout.all()
_LAYOUT_CODE = {layout: i for i, layout in enumerate(_LAYOUTS)}
_ORDER_CODE = {order: i for i, order in enumerate(Configuration.LOOP_ORDERS)}
#: order_contiguous[layout_code, order_code] — does the loop order end on the
#: layout's contiguous axis?  (Same predicate as the scalar lowering.)
ORDER_CONTIGUOUS = np.array(
    [
        [order.endswith(_CONTIGUOUS_AXIS[layout]) for order in Configuration.LOOP_ORDERS]
        for layout in _LAYOUTS
    ],
    dtype=bool,
)


class ConfigArray:
    """Structure-of-arrays view of a batch of :class:`Configuration` values.

    The search-side twin of :class:`~repro.gpusim.kernels.ProfileBatch`: the
    rows live in one ``(n, 12)`` int64 matrix, :attr:`rows`, whose columns
    are the knobs in :attr:`FIELDS` order, with the categorical knobs
    (algorithm, layout, loop order) stored as codes into the canonical
    option tuples (:data:`ALGORITHMS`, ``Layout.all()``,
    ``Configuration.LOOP_ORDERS``).  Each knob name is a read/write column
    view (``a.tile_x[2] = 7`` writes row 2), and the row operations
    (:meth:`take`, :meth:`copy`, :meth:`where`, :meth:`concat`,
    :meth:`key_matrix`) are one NumPy call each.  The vectorised search hot
    path — :meth:`SearchSpace.sample_batch`,
    :meth:`SearchSpace.neighbor_batch`, the column-wise
    :func:`~repro.core.autotune.features.feature_matrix` and the lock-step
    explorer — works on the matrix; :meth:`to_configs` /
    :meth:`from_configs` round-trip losslessly, so the array representation
    never changes *what* is searched, only how fast the batch is processed.
    """

    #: column names, in Configuration.key() order.
    FIELDS = (
        "algo",  # codes into ALGORITHMS
        "tile_x",
        "tile_y",
        "tile_z",
        "threads_x",
        "threads_y",
        "threads_z",
        "layout",  # codes into Layout.all()
        "smem_per_block",
        "e",
        "unroll",
        "order",  # codes into Configuration.LOOP_ORDERS
    )

    def __init__(self, **columns) -> None:
        """Stack one equal-length 1-D column per name in :attr:`FIELDS`."""
        if set(columns) != set(self.FIELDS):
            raise TypeError(f"ConfigArray takes exactly the columns {self.FIELDS}")
        cols = [np.asarray(columns[name], dtype=np.int64) for name in self.FIELDS]
        for name, col in zip(self.FIELDS, cols):
            if col.ndim != 1:
                raise ValueError(f"column {name} must be one-dimensional")
        if len({col.shape[0] for col in cols}) != 1:
            raise ValueError("all columns must have the same length")
        self.rows = np.stack(cols, axis=1)

    # ------------------------------------------------------------------ #
    @classmethod
    def _wrap(cls, rows: np.ndarray) -> "ConfigArray":
        """Internal constructor around an ``(n, 12)`` int64 matrix (no
        checks and no copy: the hot-path row operations below build
        thousands of arrays per walk)."""
        self = object.__new__(cls)
        self.rows = rows
        return self

    def __len__(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def from_configs(cls, configs: Sequence[Configuration]) -> "ConfigArray":
        """Pack a list of configurations into rows (lossless)."""
        rows = [
            (
                _ALGO_CODE[c.algorithm],
                c.tile_x,
                c.tile_y,
                c.tile_z,
                c.threads_x,
                c.threads_y,
                c.threads_z,
                _LAYOUT_CODE[c.layout],
                c.smem_per_block,
                c.e,
                c.unroll,
                _ORDER_CODE[c.loop_order],
            )
            for c in configs
        ]
        return cls._wrap(np.array(rows, dtype=np.int64).reshape(-1, len(cls.FIELDS)))

    @classmethod
    def filled(cls, n: int, algorithm: str) -> "ConfigArray":
        """An ``n``-row array of placeholder rows for one algorithm (the rows
        are overwritten column-wise by the vectorised samplers)."""
        rows = np.ones((n, len(cls.FIELDS)), dtype=np.int64)
        rows[:, 0] = _ALGO_CODE[algorithm]
        return cls._wrap(rows)

    @classmethod
    def concat(cls, arrays: Sequence["ConfigArray"]) -> "ConfigArray":
        if len(arrays) == 1:
            return arrays[0]
        return cls._wrap(np.concatenate([a.rows for a in arrays]))

    def take(self, indices) -> "ConfigArray":
        """Row subset (index array or boolean mask)."""
        return self._wrap(self.rows[indices])

    def copy(self) -> "ConfigArray":
        return self._wrap(self.rows.copy())

    def where(self, mask: np.ndarray, other: "ConfigArray") -> "ConfigArray":
        """Rows from ``other`` where ``mask`` holds, else from ``self``."""
        return self._wrap(np.where(mask[:, None], other.rows, self.rows))

    def key_matrix(self) -> np.ndarray:
        """An ``(n, 12)`` int64 matrix whose rows identify configurations
        (a copy of :attr:`rows`).

        The row is an injective recoding of :meth:`Configuration.key` (the
        categorical knobs appear as their codes), so row-level deduplication
        over the matrix — e.g. ``np.unique`` over its rows in the vectorised
        explorer — agrees exactly with key-based deduplication.
        """
        return self.rows.copy()

    def config_at(self, i: int) -> Configuration:
        """Materialise row ``i`` as a :class:`Configuration`."""
        return _config_from_row(self.rows[i].tolist())

    def to_configs(self) -> List[Configuration]:
        return [_config_from_row(row) for row in self.rows.tolist()]


def _column(index: int) -> property:
    """Read/write view of one :class:`ConfigArray` column."""

    def get(self: ConfigArray) -> np.ndarray:
        return self.rows[:, index]

    def set_(self: ConfigArray, values) -> None:
        self.rows[:, index] = values

    return property(get, set_)


for _index, _name in enumerate(ConfigArray.FIELDS):
    setattr(ConfigArray, _name, _column(_index))
del _index, _name


def _config_from_row(row: List[int]) -> Configuration:
    """The :class:`Configuration` of one :attr:`ConfigArray.rows` row."""
    algo, x, y, z, tx, ty, tz, layout, smem, e, unroll, order = row
    return Configuration(
        algorithm=ALGORITHMS[algo],
        tile_x=x,
        tile_y=y,
        tile_z=z,
        threads_x=tx,
        threads_y=ty,
        threads_z=tz,
        layout=_LAYOUTS[layout],
        smem_per_block=smem,
        e=e,
        unroll=unroll,
        loop_order=Configuration.LOOP_ORDERS[order],
    )


def build_profile(
    config: Configuration, params: ConvParams, spec: GPUSpec
) -> KernelProfile:
    """Lower a configuration to a kernel profile on a given GPU.

    Raises ``ValueError`` if the configuration is infeasible on the device
    (too much shared memory per block, too many threads, Winograd requested
    for an incompatible problem).
    """
    if config.smem_per_block > spec.shared_mem_per_sm:
        raise ValueError(
            f"configuration requests {config.smem_per_block} B shared memory; "
            f"{spec.name} offers {spec.shared_mem_per_sm} B per SM"
        )
    if config.threads_per_block > spec.max_threads_per_block:
        raise ValueError(
            f"{config.threads_per_block} threads per block exceeds the device limit "
            f"{spec.max_threads_per_block}"
        )
    if config.algorithm == "winograd":
        if not params.winograd_compatible():
            raise ValueError("Winograd configuration for a non-Winograd problem")
        profile = winograd_dataflow_profile(
            params,
            config.tile,
            e=config.e,
            dtype_size=spec.dtype_size,
            threads_per_block=config.threads_per_block,
            layout=config.layout,
        )
    else:
        profile = direct_dataflow_profile(
            params,
            config.tile,
            dtype_size=spec.dtype_size,
            threads_per_block=config.threads_per_block,
            layout=config.layout,
        )
    # The schedule may only use the shared memory the configuration allocates;
    # a block whose working set exceeds S_b is infeasible.
    if profile.smem_per_block > config.smem_per_block:
        raise ValueError(
            f"working set {profile.smem_per_block} B exceeds the configured "
            f"shared memory {config.smem_per_block} B"
        )

    # Low-level knobs: unrolling trades register pressure against loop
    # overhead; the loop traversal order decides whether consecutive threads
    # touch consecutive addresses of the innermost (layout-dependent) axis.
    unroll_gain = _UNROLL_GAIN[config.unroll]
    contiguous_axis = _CONTIGUOUS_AXIS[config.layout]
    order_gain = 1.0 if config.loop_order.endswith(contiguous_axis) else 0.85
    compute_eff = min(1.0, profile.compute_efficiency * unroll_gain)
    coalescing = min(1.0, profile.coalescing * order_gain)
    return profile.with_(
        smem_per_block=config.smem_per_block,
        compute_efficiency=compute_eff,
        coalescing=coalescing,
    )


def _io_may_overflow_int64(params: ConvParams) -> bool:
    """Whether the vectorised I/O products could exceed int64.

    A conservative bound on the largest product formed below, (number of
    blocks) x (per-block input/weight elements): blocks never exceed the
    output-element count, the per-block halo is at most ``(k+s)`` per tile
    axis unit, and the 2^59 threshold leaves an 8x margin for ceil-division
    slack.  Within int64 range the vectorised integers are exact and convert
    to float64 with the same rounding as the scalar Python ints."""
    p = params
    max_blocks = p.out_width * p.out_height * p.out_channels * p.batch
    per_block = max(
        (p.ker_width + p.stride) * (p.ker_height + p.stride), p.ker_height * p.ker_width
    ) * p.in_channels
    return max_blocks * per_block >= 2**59


def _lower_scalar_into(
    config: Configuration,
    i: int,
    params: ConvParams,
    spec: GPUSpec,
    feasible: np.ndarray,
    flops: np.ndarray,
    dram: np.ndarray,
    threads: np.ndarray,
    blocks: np.ndarray,
    eff: np.ndarray,
    coal: np.ndarray,
    names: List[str],
) -> None:
    """Scalar-lowering fallback: fill row ``i`` of the batch arrays from
    :func:`build_profile` (bit-identical by construction)."""
    try:
        profile = build_profile(config, params, spec)
    except ValueError:
        return
    if (
        profile.threads_per_block > spec.max_threads_per_block
        or profile.threads_per_block > spec.max_threads_per_sm
    ):
        # The executor would reject the launch (same rule as the vectorised
        # feasibility mask): infeasible, not a batch-wide error.
        return
    feasible[i] = True
    flops[i] = profile.flops
    dram[i] = profile.dram_bytes
    threads[i] = profile.threads_per_block
    blocks[i] = profile.num_blocks
    eff[i] = profile.compute_efficiency
    coal[i] = profile.coalescing
    names[i] = profile.name


def lower_batch(
    configs: Sequence[Configuration], params: ConvParams, spec: GPUSpec
) -> Tuple[np.ndarray, ProfileBatch]:
    """Vectorised :func:`build_profile` over a whole batch of configurations.

    Returns ``(feasible, batch)`` where ``feasible`` is a boolean mask over
    ``configs`` (exactly the configurations for which :func:`build_profile`
    would succeed) and ``batch`` is the :class:`ProfileBatch` of the feasible
    configurations, in input order.  All quantities are computed with the same
    arithmetic as the scalar lowering, so executing the batch reproduces the
    scalar measurements bit-for-bit.
    """
    n = len(configs)
    feasible = np.zeros(n, dtype=bool)
    flops = np.zeros(n, dtype=np.float64)
    dram = np.zeros(n, dtype=np.float64)
    threads = np.zeros(n, dtype=np.int64)
    blocks = np.zeros(n, dtype=np.int64)
    eff = np.zeros(n, dtype=np.float64)
    coal = np.zeros(n, dtype=np.float64)
    names: List[str] = [""] * n

    p = params
    smem_cfg = np.fromiter((c.smem_per_block for c in configs), np.int64, n)
    layout_values = [c.layout.value for c in configs]

    # Group by (algorithm, e): within a group the FLOP count and kernel name
    # are constants and every other quantity vectorises over the tile knobs.
    groups: Dict[Tuple[str, int], List[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.algorithm, c.e if c.algorithm == "winograd" else 0), []).append(i)

    for (algorithm, e), idx_list in groups.items():
        if algorithm == "winograd" and not p.winograd_compatible():
            continue  # the whole group is infeasible, exactly as build_profile raises
        idx = np.asarray(idx_list, dtype=np.intp)
        group = [configs[i] for i in idx_list]
        if _io_may_overflow_int64(p):
            # Astronomically large problems would wrap the int64 I/O products
            # below (the scalar path uses unbounded Python ints); lower those
            # through the scalar constructors instead of producing garbage.
            for i in idx_list:
                _lower_scalar_into(
                    configs[i], i, p, spec,
                    feasible, flops, dram, threads, blocks, eff, coal, names,
                )
            continue
        m = len(group)
        knobs = np.array(
            [
                (c.tile_x, c.tile_y, c.tile_z, c.threads_x * c.threads_y * c.threads_z)
                for c in group
            ],
            dtype=np.int64,
        )
        tx, ty, tz, treq = knobs[:, 0], knobs[:, 1], knobs[:, 2], knobs[:, 3]

        # What follows is the vectorised counterpart of the scalar lowering:
        # tile clipping / block grid / smem from the profile constructors in
        # repro.gpusim.kernels, I/O volumes from repro.core.dataflow.direct
        # and .winograd (Eq. 20/22). Any edit there must be mirrored here —
        # the bit-identity property tests in tests/test_batched_measurement.py
        # enforce the contract.
        x = np.minimum(tx, p.out_width)
        y = np.minimum(ty, p.out_height)
        z = np.minimum(tz, p.out_channels)
        blocks_g = (
            -(-p.out_width // x) * -(-p.out_height // y) * -(-p.out_channels // z)
        ) * p.batch

        if algorithm == "winograd":
            r = p.ker_height
            t = e + r - 1
            halo = (x + r - 1) * (y + r - 1)
            input_reads = blocks_g * halo * p.in_channels
            weight_reads = blocks_g * z * r * r * p.in_channels
            overhead = 2.0 * t * t / (e * e)
            temp_elems = np.ceil(overhead * (x * y * z)).astype(np.int64)
            smem_elems = temp_elems + halo + z * r * r
            flops_const = float(winograd_flops(p, e=e))
            name = winograd_kernel_name(e)
            base_eff = DATAFLOW_COMPUTE_EFF["winograd"]
        else:
            foot = ((x - 1) * p.stride + p.ker_width) * ((y - 1) * p.stride + p.ker_height)
            input_reads = blocks_g * (foot * p.in_channels)
            weight_reads = blocks_g * (p.ker_height * p.ker_width * p.in_channels * z)
            smem_elems = x * y * z + foot + p.ker_height * p.ker_width * z
            flops_const = float(p.flops)
            name = DIRECT_KERNEL_NAME
            base_eff = DATAFLOW_COMPUTE_EFF["direct"]

        # IOVolume.total evaluates ((input + weight) + output) + extra.
        total = (
            input_reads.astype(np.float64)
            + weight_reads.astype(np.float64)
            + float(p.output_elements)
            + 0.0
        )
        profile_smem = smem_elems * spec.dtype_size

        smem_g = smem_cfg[idx]
        threads_g = np.maximum(32, np.minimum(1024, treq))
        ok = (
            (smem_g <= spec.shared_mem_per_sm)
            & (treq <= spec.max_threads_per_block)
            & (profile_smem <= smem_g)
            # The clamped launch must also fit the device, or the executor
            # rejects it (threads above the per-block or per-SM limits);
            # such configurations are infeasible, not batch-wide errors.
            & (threads_g <= spec.max_threads_per_block)
            & (threads_g <= spec.max_threads_per_sm)
        )
        eff_lut = {u: min(1.0, base_eff * g) for u, g in _UNROLL_GAIN.items()}

        feasible[idx] = ok
        flops[idx] = flops_const
        dram[idx] = total * spec.dtype_size
        threads[idx] = threads_g
        blocks[idx] = blocks_g
        eff[idx] = np.fromiter((eff_lut[c.unroll] for c in group), np.float64, m)
        coal[idx] = np.fromiter(
            (
                _COALESCING_LUT[c.layout, c.loop_order.endswith(_CONTIGUOUS_AXIS[c.layout])]
                for c in group
            ),
            np.float64,
            m,
        )
        for i in idx_list:
            names[i] = name

    sel = np.flatnonzero(feasible)
    batch = ProfileBatch(
        names=[names[i] for i in sel],
        flops=flops[sel],
        dram_bytes=dram[sel],
        smem_per_block=smem_cfg[sel],
        threads_per_block=threads[sel],
        num_blocks=blocks[sel],
        coalescing=coal[sel],
        compute_efficiency=eff[sel],
        layout_values=[layout_values[i] for i in sel],
    )
    return feasible, batch


@dataclasses.dataclass
class PendingBatch:
    """A lowered-but-not-yet-executed slice of a :meth:`Measurer.measure_batch`.

    Produced by :meth:`Measurer.prepare_batch` and consumed by
    :meth:`Measurer.finish_batch`; ``batch`` holds the feasible uncached
    configurations in input order (the work an executor must run), while
    ``results`` already carries the cache hits.
    """

    #: per-input-config results; cache hits prefilled, the rest ``None``.
    results: List[Optional[ExecutionResult]]
    #: configuration key -> input indices awaiting that key's execution.
    pending: Dict[Tuple, List[int]]
    #: keys of the uncached configurations, in lowering order.
    pending_keys: List[Tuple]
    #: feasibility mask over ``pending_keys`` (from :func:`lower_batch`).
    feasible: np.ndarray
    #: the lowered feasible configurations, ready for the executor.
    batch: ProfileBatch

    def __len__(self) -> int:
        """Number of configurations the executor must run."""
        return len(self.batch)


class Measurer:
    """Measurement harness: run configurations on the simulated GPU.

    Plays the role of the paper's template manager + hardware measurements.
    Results are memoised because the simulator is deterministic for a given
    configuration (it models the *averaged* runtime of repeated runs); a
    configuration found infeasible is memoised as ``None`` so feasibility
    probes and measurements never lower the same configuration twice.
    """

    def __init__(self, params: ConvParams, spec: GPUSpec, noise: float = 0.05, seed: int = 2021):
        self.params = params
        self.spec = spec
        self.executor = GPUExecutor(spec, noise=noise, seed=seed)
        #: key -> ExecutionResult, or None for configurations that failed to lower.
        self._cache: Dict[Tuple, Optional[ExecutionResult]] = {}
        self.num_measurements = 0
        # Telemetry mirrors (null no-ops until attach_metrics binds real
        # ones); REPRO601 scope, so only counts/sizes are recorded.
        self._m_measurements = NULL_COUNTER
        self._m_batch_size = NULL_HISTOGRAM

    def attach_metrics(self, metrics) -> None:
        """Bind measurement telemetry to a metrics scope (see ``repro.obs``).

        Records ``measurements`` (simulator executions) and ``batch_size``
        (configs per prepared batch), and forwards an ``executor`` sub-scope
        to :meth:`~repro.gpusim.executor.GPUExecutor.attach_metrics`.
        """
        self._m_measurements = metrics.counter("measurements")
        self._m_batch_size = metrics.histogram("batch_size", BATCH_SIZE_BOUNDS)
        self.executor.attach_metrics(metrics.scope("executor"))

    # -- scalar path --------------------------------------------------- #
    def _measure_uncached(self, config: Configuration) -> Optional[ExecutionResult]:
        try:
            profile = build_profile(config, self.params, self.spec)
            # The executor applies its own launch limits (e.g. more threads
            # per block than an SM can keep resident); a rejected launch is
            # an infeasible configuration, same as a failed lowering.
            execution = self.executor.run(profile)
        except ValueError:
            return None
        self.num_measurements += 1
        self._m_measurements.inc()
        return execution

    def try_measure(self, config: Configuration) -> Optional[ExecutionResult]:
        """Measure a configuration, or return ``None`` if it is infeasible.

        The single lowering produced here serves both the feasibility check
        and the measurement (previously each accepted measurement lowered the
        configuration twice, once in ``is_feasible`` and once in ``measure``).
        """
        key = config.key()
        if key not in self._cache:
            self._cache[key] = self._measure_uncached(config)
        return self._cache[key]

    def is_feasible(self, config: Configuration) -> bool:
        return self.try_measure(config) is not None

    def measure(self, config: Configuration) -> ExecutionResult:
        """Simulated execution of the configuration (memoised)."""
        execution = self.try_measure(config)
        if execution is None:
            raise ValueError(f"infeasible configuration {config.describe()}")
        return execution

    # -- batched path -------------------------------------------------- #
    def prepare_batch(self, configs: Sequence[Configuration]) -> "PendingBatch":
        """Lower a batch without executing it (the front half of
        :meth:`measure_batch`).

        Cache hits and duplicate keys are resolved immediately; the
        not-yet-measured configurations are lowered with :func:`lower_batch`
        into ``PendingBatch.batch``, ready to be executed — possibly packed
        together with pending batches of *other* measurers via
        :meth:`~repro.gpusim.executor.GPUExecutor.run_batch_groups` — and
        handed back to :meth:`finish_batch`.
        """
        self._m_batch_size.observe(len(configs))
        results: List[Optional[ExecutionResult]] = [None] * len(configs)
        pending: Dict[Tuple, List[int]] = {}
        pending_configs: List[Configuration] = []
        pending_keys: List[Tuple] = []
        for i, config in enumerate(configs):
            key = config.key()
            if key in self._cache:
                results[i] = self._cache[key]
            elif key in pending:
                pending[key].append(i)
            else:
                pending[key] = [i]
                pending_configs.append(config)
                pending_keys.append(key)
        feasible, batch = lower_batch(pending_configs, self.params, self.spec)
        return PendingBatch(results, pending, pending_keys, feasible, batch)

    def finish_batch(
        self, prepared: "PendingBatch", executions: Sequence[ExecutionResult]
    ) -> List[Optional[ExecutionResult]]:
        """Record the executor results of a prepared batch (the back half of
        :meth:`measure_batch`).

        ``executions`` must be the executor's results for exactly
        ``prepared.batch`` (one entry per feasible lowered configuration, in
        order); the measurement cache and counter are updated exactly as the
        one-call path does.
        """
        it = iter(executions)
        for key, ok in zip(prepared.pending_keys, prepared.feasible.tolist()):
            execution = next(it) if ok else None
            if execution is not None:
                self.num_measurements += 1
                self._m_measurements.inc()
            self._cache[key] = execution
            for i in prepared.pending[key]:
                prepared.results[i] = execution
        return prepared.results

    def measure_batch(
        self, configs: Sequence[Configuration]
    ) -> List[Optional[ExecutionResult]]:
        """Measure a whole batch at once; ``None`` marks infeasible entries.

        Uncached configurations are lowered with :func:`lower_batch` and
        executed through the vectorised
        :meth:`~repro.gpusim.executor.GPUExecutor.run_batch`, producing
        results bit-identical to the scalar path (same noise term included).
        The call is ``prepare_batch`` + ``run_batch`` + ``finish_batch``;
        callers that want to pack several measurers' work into one executor
        call use the two halves directly.
        """
        prepared = self.prepare_batch(configs)
        executions = (
            self.executor.run_batch(prepared.batch) if len(prepared.batch) else ()
        )
        return self.finish_batch(prepared, executions)

    def time_seconds(self, config: Configuration) -> float:
        return self.measure(config).time_seconds

    def gflops(self, config: Configuration) -> float:
        return self.measure(config).achieved_gflops
