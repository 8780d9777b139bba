"""Property tests for the vectorised (SoA) search-side hot path.

Covers the contracts the tentpole relies on:

* :class:`ConfigArray` round-trips ``Configuration`` lists losslessly and its
  ``key_matrix`` deduplicates exactly like ``Configuration.key()``;
* the column-wise :func:`feature_matrix` fast path is bit-identical to the
  stacked per-row :func:`feature_vector` reference across algorithms,
  pruned/unpruned domains and GPUs;
* :meth:`SearchSpace.sample_batch` / :meth:`SearchSpace.neighbor_batch` /
  :meth:`SearchSpace.contains_batch` agree with their scalar counterparts,
  and ``neighbor_batch`` equals the per-knob, per-round reference
  (``tests/space_oracle.py``) row for row;
* ``SearchSpace`` is frozen (the staleness hazard regression test);
* the vectorised explorer finds configurations no worse than the scalar
  reference at equal measurement budget across a seed grid;
* ``FeatureCache`` keeps one row per distinct configuration and counts
  its hits and misses;
* the vectorised tree routing is bit-identical to a per-row descent.
"""

import dataclasses
import random
import statistics

import numpy as np
import pytest

from repro.conv import ConvParams
from repro.core.autotune import (
    AutoTuningEngine,
    ConfigArray,
    CostModel,
    FeatureCache,
    Measurer,
    ParallelRandomWalkExplorer,
    RegressionTree,
    ScalarRandomWalkExplorer,
    SearchSpace,
    feature_matrix,
    feature_vector,
)
from repro.gpusim import GTX_1080TI, V100
from tests.space_oracle import oracle_feasible, oracle_neighbor_batch, oracle_perturb

WINO = ConvParams.square(14, 128, 256, kernel=3, stride=1, padding=1)
SMALL = ConvParams.square(13, 64, 96, kernel=3, stride=1, padding=1)

SPACE_GRID = [
    pytest.param(SMALL, "direct", True, V100, id="direct-pruned-v100"),
    pytest.param(SMALL, "direct", False, V100, id="direct-full-v100"),
    pytest.param(SMALL, "direct", True, GTX_1080TI, id="direct-pruned-1080ti"),
    pytest.param(WINO, "winograd", True, V100, id="winograd-pruned-v100"),
    pytest.param(WINO, "winograd", False, GTX_1080TI, id="winograd-full-1080ti"),
]


def _sample_with_neighbors(space, seed, count=96):
    """Random configurations plus neighbour perturbations (more knob variety
    than uniform sampling alone: adjacent tiles, reset threads, ...)."""
    rng = random.Random(seed)
    configs = space.sample(rng, count)
    configs += [space.neighbor(c, rng) for c in configs[: count // 2]]
    return configs


class TestConfigArray:
    @pytest.mark.parametrize("params,algo,pruned,gpu", SPACE_GRID)
    def test_roundtrip_lossless(self, params, algo, pruned, gpu):
        space = SearchSpace(params, gpu, algo, pruned=pruned)
        configs = _sample_with_neighbors(space, seed=1)
        arr = ConfigArray.from_configs(configs)
        assert len(arr) == len(configs)
        assert arr.to_configs() == configs

    def test_roundtrip_mixed_algorithms(self):
        direct = SearchSpace(WINO, V100, "direct", pruned=True)
        wino = SearchSpace(WINO, V100, "winograd", pruned=True)
        rng = random.Random(3)
        configs = direct.sample(rng, 20) + wino.sample(rng, 20)
        rng.shuffle(configs)
        assert ConfigArray.from_configs(configs).to_configs() == configs

    def test_key_matrix_dedup_matches_config_keys(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        rng = random.Random(5)
        configs = space.sample(rng, 40)
        configs += configs[:15]  # force duplicates
        arr = ConfigArray.from_configs(configs)
        unique_rows = np.unique(arr.key_matrix(), axis=0).shape[0]
        assert unique_rows == len({c.key() for c in configs})

    def test_take_where_concat(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        rng = random.Random(7)
        a = ConfigArray.from_configs(space.sample(rng, 10))
        b = ConfigArray.from_configs(space.sample(rng, 10))
        assert a.take([2, 4]).to_configs() == [a.config_at(2), a.config_at(4)]
        mask = np.zeros(10, dtype=bool)
        mask[3] = True
        merged = a.where(mask, b)
        assert merged.config_at(3) == b.config_at(3)
        assert merged.config_at(0) == a.config_at(0)
        both = ConfigArray.concat([a, b])
        assert both.to_configs() == a.to_configs() + b.to_configs()

    def test_column_view_writes_land_in_the_row(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        a = ConfigArray.from_configs(space.sample(random.Random(9), 5))
        a.tile_x[2] = 7
        assert a.config_at(2).tile_x == 7
        assert a.key_matrix()[2, 1] == 7
        a.unroll = np.full(5, 8)
        assert [c.unroll for c in a.to_configs()] == [8] * 5

    def test_take_mask_equals_take_indices(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        a = ConfigArray.from_configs(space.sample(random.Random(21), 12))
        mask = np.random.default_rng(21).random(12) < 0.5
        assert (a.take(mask).rows == a.take(np.flatnonzero(mask)).rows).all()
        assert a.take(mask).to_configs() == a.take(np.flatnonzero(mask)).to_configs()

    def test_from_no_configs(self):
        empty = ConfigArray.from_configs([])
        assert len(empty) == 0
        assert empty.rows.shape == (0, len(ConfigArray.FIELDS))
        assert feature_matrix(empty, SMALL, V100).shape == (0, 21)

    def test_rejects_two_dimensional_columns(self):
        columns = {name: np.ones(3, dtype=np.int64) for name in ConfigArray.FIELDS}
        columns["tile_y"] = np.ones((3, 1), dtype=np.int64)
        with pytest.raises(ValueError):
            ConfigArray(**columns)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            ConfigArray(
                algo=np.zeros(3, dtype=np.int64),
                tile_x=np.ones(2, dtype=np.int64),
                tile_y=np.ones(3, dtype=np.int64),
                tile_z=np.ones(3, dtype=np.int64),
                threads_x=np.ones(3, dtype=np.int64),
                threads_y=np.ones(3, dtype=np.int64),
                threads_z=np.ones(3, dtype=np.int64),
                layout=np.zeros(3, dtype=np.int64),
                smem_per_block=np.ones(3, dtype=np.int64),
                e=np.full(3, 2, dtype=np.int64),
                unroll=np.ones(3, dtype=np.int64),
                order=np.zeros(3, dtype=np.int64),
            )


class TestFeatureMatrixBitIdentity:
    @pytest.mark.parametrize("params,algo,pruned,gpu", SPACE_GRID)
    def test_soa_equals_per_row(self, params, algo, pruned, gpu):
        space = SearchSpace(params, gpu, algo, pruned=pruned)
        configs = _sample_with_neighbors(space, seed=11)
        fast = feature_matrix(ConfigArray.from_configs(configs), params, gpu)
        reference = np.stack([feature_vector(c, params, gpu) for c in configs])
        assert fast.shape == reference.shape
        assert (fast == reference).all(), "column-wise features diverge bitwise"

    def test_soa_equals_per_row_mixed_algorithms(self):
        rng = random.Random(13)
        configs = SearchSpace(WINO, V100, "direct", pruned=True).sample(rng, 25)
        configs += SearchSpace(WINO, V100, "winograd", pruned=False).sample(rng, 25)
        rng.shuffle(configs)
        fast = feature_matrix(ConfigArray.from_configs(configs), WINO, V100)
        reference = np.stack([feature_vector(c, WINO, V100) for c in configs])
        assert (fast == reference).all()

    def test_winograd_rows_on_incompatible_problem(self):
        """algorithm == 'winograd' on a strided problem falls back to the
        direct-dataflow features, in both paths identically."""
        strided = ConvParams.square(28, 32, 32, kernel=3, stride=2, padding=1)
        configs = SearchSpace(strided, V100, "direct", pruned=True).sample(
            random.Random(17), 20
        )
        wino_like = [
            dataclasses.replace(c, algorithm="winograd", e=3) for c in configs
        ]
        fast = feature_matrix(ConfigArray.from_configs(wino_like), strided, V100)
        reference = np.stack([feature_vector(c, strided, V100) for c in wino_like])
        assert (fast == reference).all()
        assert (fast[:, -2] == 0.0).all()  # is_winograd stays off

    def test_empty_array(self):
        arr = ConfigArray.from_configs([])
        assert feature_matrix(arr, SMALL, V100).shape == (0, 21)

    def test_sequence_path_unchanged(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        configs = space.sample(random.Random(19), 8)
        via_list = feature_matrix(configs, SMALL, V100)
        via_array = feature_matrix(ConfigArray.from_configs(configs), SMALL, V100)
        assert (via_list == via_array).all()


class TestSearchSpaceBatchOps:
    @pytest.mark.parametrize("params,algo,pruned,gpu", SPACE_GRID)
    def test_sample_batch_members(self, params, algo, pruned, gpu):
        space = SearchSpace(params, gpu, algo, pruned=pruned)
        batch = space.sample_batch(np.random.default_rng(23), 64)
        assert len(batch) == 64
        assert space.contains_batch(batch).all()
        assert all(space.contains(c) for c in batch.to_configs())

    @pytest.mark.parametrize("params,algo,pruned,gpu", SPACE_GRID)
    def test_contains_batch_agrees_with_scalar(self, params, algo, pruned, gpu):
        space = SearchSpace(params, gpu, algo, pruned=pruned)
        # Mix members with configurations from *other* spaces (different
        # pruning, different algorithm) so both mask outcomes are exercised.
        rng = random.Random(29)
        configs = space.sample(rng, 30)
        configs += SearchSpace(params, gpu, algo, pruned=not pruned).sample(rng, 30)
        other_algo = "direct" if algo == "winograd" else None
        if other_algo and params.winograd_compatible():
            configs += SearchSpace(params, gpu, other_algo).sample(rng, 10)
        mask = space.contains_batch(ConfigArray.from_configs(configs))
        assert mask.tolist() == [space.contains(c) for c in configs]

    @pytest.mark.parametrize("params,algo,pruned,gpu", SPACE_GRID)
    def test_neighbor_batch_members(self, params, algo, pruned, gpu):
        space = SearchSpace(params, gpu, algo, pruned=pruned)
        gen = np.random.default_rng(31)
        current = space.sample_batch(gen, 48)
        stepped = space.neighbor_batch(current, gen=gen, fallback_gen=gen)
        assert len(stepped) == 48
        assert space.contains_batch(stepped).all()

    def test_neighbor_batch_deterministic_in_uniforms(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        current = space.sample_batch(np.random.default_rng(37), 32)
        u = np.random.default_rng(41).random((32, 3 * 8))
        a = space.neighbor_batch(current, u)
        b = space.neighbor_batch(current, u)
        assert a.to_configs() == b.to_configs()

    def test_neighbor_batch_requires_randomness_source(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        current = space.sample_batch(np.random.default_rng(43), 4)
        with pytest.raises(ValueError):
            space.neighbor_batch(current)

    def test_tile_ok_mask_matches_scalar(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        rng = np.random.default_rng(47)
        x = rng.integers(1, 16, 200)
        y = rng.integers(1, 16, 200)
        z = rng.integers(1, 128, 200)
        smem = 1024 * rng.integers(8, 96, 200)
        mask = space.tile_ok_mask(x, y, z, smem)
        scalar = [
            space._tile_ok(int(a), int(b), int(c), int(s))
            for a, b, c, s in zip(x, y, z, smem)
        ]
        assert mask.tolist() == scalar


def _oracle_spaces():
    """Spaces for the neighbour oracle: both algorithms, pruned and unpruned,
    on both GPUs; a Winograd space with one ``e`` option (so no ``e`` knob);
    and a GPU whose shared memory leaves the pruned space one option."""
    spaces = [
        pytest.param(
            SearchSpace(params, gpu, algo, pruned=pruned),
            id=f"{algo}-{'pruned' if pruned else 'full'}-{tag}",
        )
        for params, algo in ((SMALL, "direct"), (WINO, "winograd"))
        for gpu, tag in ((V100, "v100"), (GTX_1080TI, "1080ti"))
        for pruned in (True, False)
    ]
    one_smem = dataclasses.replace(V100, name="one-smem", shared_mem_per_sm=16 * 1024)
    assert len(SearchSpace(SMALL, one_smem, "direct", pruned=True)._smem_opts) == 1
    return spaces + [
        pytest.param(
            SearchSpace(WINO, V100, "winograd", pruned=True, e_options=(3,)),
            id="winograd-one-e",
        ),
        pytest.param(SearchSpace(SMALL, one_smem, "direct", pruned=True), id="one-smem"),
    ]


def _generators(seed):
    """Two generators on one stream (``None, None`` for no seed): one each
    for ``neighbor_batch`` and the oracle, so their fallbacks draw alike."""
    if seed is None:
        return None, None
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _rows_that_fail(space, rounds, gen, count=32):
    """``count`` rows of the space and their uniforms for ``rounds`` rounds.
    The first rows (up to half) repeat, in every round, a draw whose
    candidate is infeasible, so they fail every round.  Returns the rows,
    the uniforms and the number of failing rows."""
    # One draw per (knob, thread axis or alternative, direction).
    knobs = 9 if space.algorithm == "winograd" and len(space.e_options) > 1 else 8
    draws = np.array(
        [
            ((k + 0.5) / knobs, (a + 0.5) / 3, d)
            for k in range(knobs)
            for a in range(3)
            for d in (0.25, 0.75)
        ]
    )
    pool = space.sample_batch(gen, 256)
    tries = pool.take(np.repeat(np.arange(len(pool)), len(draws)))
    ok = oracle_feasible(space, oracle_perturb(space, tries, np.tile(draws, (len(pool), 1))))
    ok = ok.reshape(len(pool), len(draws))
    can_fail = np.flatnonzero(~ok.all(axis=1))[: count // 2]
    rest = np.setdiff1d(np.arange(len(pool)), can_fail)[: count - can_fail.size]
    rows = pool.take(np.concatenate([can_fail, rest]))
    u = gen.random((count, space.DRAWS_PER_NEIGHBOR_ROUND * rounds))
    u[: can_fail.size] = np.tile(draws[ok[can_fail].argmin(axis=1)], rounds)
    return rows, u, can_fail.size


class TestNeighborBatchOracle:
    """``neighbor_batch`` perturbs every round of every row at once; the
    oracle retries round by round.  The rows must be equal, and so must
    the fallback stream's consumption."""

    @pytest.mark.parametrize("rounds", [1, 3, 8])
    @pytest.mark.parametrize("space", _oracle_spaces())
    def test_equals_per_round_retry_loop(self, space, rounds):
        rows = space.sample_batch(np.random.default_rng(rounds), 64)
        u = np.random.default_rng(100 + rounds).random((64, 3 * rounds))
        for assume_contained in (True, False):
            for fallback_seed in (None, 7):
                got_gen, want_gen = _generators(fallback_seed)
                got = space.neighbor_batch(
                    rows, u, fallback_gen=got_gen, assume_contained=assume_contained
                )
                want = oracle_neighbor_batch(
                    space, rows, u, fallback_gen=want_gen, assume_contained=assume_contained
                )
                assert (got.rows == want.rows).all()
                if fallback_seed is not None:
                    assert got_gen.random() == want_gen.random()

    @pytest.mark.parametrize("rounds", [1, 3, 8])
    @pytest.mark.parametrize("space", _oracle_spaces())
    def test_rows_that_fail_every_round_or_lie_outside(self, space, rounds):
        gen = np.random.default_rng(rounds)
        inside, u, failing = _rows_that_fail(space, rounds, gen)
        assert failing > 0, "no row could be made to fail every round"
        outside = space.sample_batch(gen, 12)
        outside.tile_x[0::3] = space.params.out_width + 1
        outside.threads_y[1::3] = 64
        outside.smem_per_block[2::3] = 3
        assert not space.contains_batch(outside).any()
        cases = (
            (True, inside, u),
            (False, ConfigArray.concat([inside, outside]),
             np.concatenate([u, gen.random((12, 3 * rounds))])),
        )
        for assume_contained, configs, block in cases:
            for fallback_seed in (None, 11):
                got_gen, want_gen = _generators(fallback_seed)
                got = space.neighbor_batch(
                    configs, block, fallback_gen=got_gen, assume_contained=assume_contained
                )
                want = oracle_neighbor_batch(
                    space, configs, block, fallback_gen=want_gen,
                    assume_contained=assume_contained,
                )
                assert got.to_configs() == want.to_configs()
                if fallback_seed is None:
                    # Without a fallback stream a failed row keeps its input.
                    kept = list(range(failing)) + list(range(len(inside), len(configs)))
                    assert (got.rows[kept] == configs.rows[kept]).all()
                else:
                    assert got_gen.random() == want_gen.random()


class TestFrozenSearchSpace:
    def test_mutation_raises(self):
        """Regression: option tables and the size() memo are derived in
        __post_init__; mutating the fields afterwards used to serve stale
        tables silently.  The dataclass is now frozen."""
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.pruned = False  # reprolint: disable=REPRO302 - asserts frozenness
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.params = WINO  # reprolint: disable=REPRO302 - asserts frozenness
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.algorithm = "winograd"  # reprolint: disable=REPRO302 - asserts frozenness

    def test_size_memo_still_works(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        assert space.size() == space.size() > 0


class TestVectorizedExplorer:
    def test_propose_full_unique_batch(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        explorer = ParallelRandomWalkExplorer(space, SMALL, V100, seed=1)
        batch = explorer.propose(None, batch_size=8)
        assert len(batch) == 8
        assert len({c.key() for c in batch}) == 8
        assert all(space.contains(c) for c in batch)

    def test_propose_respects_visited(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        explorer = ParallelRandomWalkExplorer(space, SMALL, V100, seed=2)
        first = explorer.propose(None, batch_size=6)
        visited = {c.key() for c in first}
        second = explorer.propose(None, batch_size=6, visited=set(visited))
        assert not visited & {c.key() for c in second}

    def test_propose_deterministic(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        a = ParallelRandomWalkExplorer(space, SMALL, V100, seed=5).propose(None, 12)
        b = ParallelRandomWalkExplorer(space, SMALL, V100, seed=5).propose(None, 12)
        assert a == b

    def test_quality_no_worse_than_scalar_across_seed_grid(self):
        """Equal measurement budget, seed grid: the lock-step explorer's
        best-found runtime must match the scalar reference in aggregate.
        Everything is deterministic (simulator + seeded RNG), so the small
        tolerance only absorbs per-seed trajectory noise, not flakiness.
        (The explorer benchmark runs the same property on a wider grid.)"""
        small_wino = ConvParams.square(14, 32, 48, kernel=3, stride=1, padding=1)
        grid = [(SMALL, "direct", V100), (small_wino, "winograd", V100)]
        for params, algo, gpu in grid:
            bests = {}
            for cls in (ScalarRandomWalkExplorer, ParallelRandomWalkExplorer):
                bests[cls] = [
                    AutoTuningEngine(
                        params,
                        gpu,
                        algo,
                        max_measurements=64,
                        seed=seed,
                        measurer=Measurer(params, gpu),
                        explorer_cls=cls,
                    )
                    .tune()
                    .best_time
                    for seed in range(3)
                ]
            scalar_mean = statistics.mean(bests[ScalarRandomWalkExplorer])
            vector_mean = statistics.mean(bests[ParallelRandomWalkExplorer])
            assert vector_mean <= scalar_mean * 1.05, (
                f"{algo}: vectorised explorer found {vector_mean:.3e}s on average "
                f"vs scalar {scalar_mean:.3e}s at equal budget"
            )


class TestFeatureCacheCap:
    def test_unbounded_by_default(self):
        cache = FeatureCache(SMALL, V100)
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        configs = space.sample(random.Random(3), 50)
        cache.matrix(configs)
        assert len(cache) == len({c.key() for c in configs})

    def test_hit_counter(self):
        cache = FeatureCache(SMALL, V100)
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        c = space.random_configuration(random.Random(7))
        cache.vector(c)
        cache.vector(c)
        assert cache.hits == 1 and cache.misses == 1


class TestVectorizedTreeRouting:
    def test_tree_predict_matches_per_row_descent(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 6))
        y = x[:, 0] * 2 + np.sin(x[:, 1]) + rng.normal(scale=0.1, size=300)
        tree = RegressionTree(max_depth=5, min_samples_leaf=3).fit(x, y)
        got = tree.predict(x)
        expected = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = 0
            while tree._feature[node] >= 0:
                node = (
                    tree._left[node]
                    if row[tree._feature[node]] <= tree._threshold[node]
                    else tree._right[node]
                )
            expected[i] = tree._value[node]
        assert (got == expected).all()

    def test_stacked_ensemble_matches_per_tree_accumulation(self):
        space = SearchSpace(SMALL, V100, "direct", pruned=True)
        measurer = Measurer(SMALL, V100)
        configs = space.sample(random.Random(13), 60)
        times = [
            measurer.time_seconds(c) if measurer.is_feasible(c) else float("inf")
            for c in configs
        ]
        model = CostModel(min_samples=8, seed=0)
        assert model.fit(feature_matrix(configs, SMALL, V100), times)
        x = feature_matrix(configs, SMALL, V100)
        stacked = model.predict_score(x)
        gbt = model._model
        reference = np.full(x.shape[0], gbt._base)
        for tree in gbt._trees:
            reference += gbt.learning_rate * tree.predict(x)
        assert (stacked == reference).all()
