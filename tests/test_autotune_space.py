"""Tests for configurations, search spaces and feature extraction."""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.conv import ConvParams, Layout
from repro.core.autotune import (
    ConfigArray,
    Configuration,
    FEATURE_NAMES,
    Measurer,
    SearchSpace,
    build_profile,
    feature_matrix,
    feature_vector,
)
from repro.gpusim import GTX_1080TI, V100
from tests.space_oracle import oracle_configs, oracle_size, zoo_spaces


@pytest.fixture
def conv3():
    """AlexNet conv3: the layer Table 2 tunes."""
    return ConvParams.square(13, 256, 384, kernel=3, stride=1, padding=1)


@pytest.fixture
def direct_space(conv3):
    return SearchSpace(conv3, V100, "direct", pruned=True)


@st.composite
def _spaces(draw):
    """Search spaces over small generated problems: odd and prime extents,
    1x1/3x3/5x5 kernels, strides 1 and 2, both GPUs (sometimes with small
    shared memory and a low thread limit), ``max_threads_per_block`` at 16,
    64 and 1024, and custom Winograd ``e_options``."""
    kernel = draw(st.sampled_from((1, 3, 5)))
    stride = draw(st.sampled_from((1, 2)))
    params = ConvParams(
        in_height=draw(st.integers(kernel, 32)),
        in_width=draw(st.integers(kernel, 32)),
        in_channels=draw(st.integers(1, 8)),
        out_channels=draw(st.integers(1, 48)),
        ker_height=kernel,
        ker_width=kernel,
        stride=stride,
        padding=draw(st.integers(0, kernel // 2)),
    )
    spec = draw(st.sampled_from((GTX_1080TI, V100)))
    if draw(st.booleans()):
        spec = dataclasses.replace(
            spec,
            shared_mem_per_sm=draw(st.integers(256, 64 * 1024)),
            max_threads_per_block=draw(st.sampled_from((8, 48, 256))),
        )
    algorithm = "direct"
    e_options = (2, 3, 4)
    if params.winograd_compatible():
        algorithm = draw(st.sampled_from(("winograd", "direct")))
        custom = st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True)
        e_options = tuple(draw(st.one_of(st.just(e_options), custom)))
    return SearchSpace(
        params,
        spec,
        algorithm,
        pruned=draw(st.booleans()),
        e_options=e_options,
        max_threads_per_block=draw(st.sampled_from((16, 64, 1024))),
    )


def _config(**kw):
    base = dict(
        algorithm="direct",
        tile_x=13,
        tile_y=13,
        tile_z=4,
        threads_x=13,
        threads_y=1,
        threads_z=4,
        smem_per_block=16 * 1024,
    )
    base.update(kw)
    return Configuration(**base)


class TestConfiguration:
    def test_threads_per_block(self):
        assert _config().threads_per_block == 52

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError):
            _config(algorithm="fft")

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            _config(tile_x=0)

    def test_invalid_unroll(self):
        with pytest.raises(ValueError):
            _config(unroll=3)

    def test_invalid_loop_order(self):
        with pytest.raises(ValueError):
            _config(loop_order="abc")

    def test_layout_coercion(self):
        assert _config(layout="HWC").layout is Layout.HWC

    def test_key_distinguishes_unroll(self):
        assert _config(unroll=2).key() != _config(unroll=4).key()

    def test_describe(self):
        assert "tile=13x13x4" in _config().describe()

    def test_as_dict_roundtrip(self):
        c = _config(layout="CWH", unroll=8)
        assert Configuration(**c.as_dict()) == c


#: a field value that stands for "leave the field out of the mapping".
_ABSENT = object()


def _verdict(build, d):
    """What ``build(d)`` does: ``("ok", config)`` or ``("raises", type)``."""
    try:
        return "ok", build(d)
    except Exception as exc:
        return "raises", type(exc)


def _assert_same_verdict(d):
    """``Configuration.from_dict(d)`` does what ``Configuration(**d)`` does:
    raises the same exception type, or returns an equal configuration with
    an equal hash, equal fields and the fields in declaration order."""
    direct = _verdict(lambda m: Configuration(**m), d)
    decoded = _verdict(Configuration.from_dict, d)
    if direct[0] == "raises":
        assert decoded == direct, d
        return
    assert decoded[0] == "ok", (d, decoded)
    expected, config = direct[1], decoded[1]
    assert config == expected
    assert hash(config) == hash(expected)
    assert config.key() == expected.key()
    assert list(vars(config).items()) == list(vars(expected).items())


class TestConfigurationFromDict:
    """``Configuration.from_dict`` is ``Configuration(**d)``, without the
    frozen ``__init__`` for a dict of every field: it accepts and rejects
    the same mappings."""

    @pytest.mark.parametrize(
        "change",
        [
            {"bogus": 1},
            {"tile_x": _ABSENT},
            {"algorithm": _ABSENT},
            {"tile_x": 0},
            {"tile_y": "3"},
            {"threads_z": -1},
            {"tile_z": 2.0},
            {"algorithm": "fft"},
            {"layout": "XYZ"},
            {"layout": None},
            {"layout": ["CHW"]},
            {"unroll": 3},
            {"unroll": "4"},
            {"loop_order": "abc"},
            {"smem_per_block": 0},
            {"smem_per_block": "big"},
            {"e": 0},
        ],
        ids=repr,
    )
    def test_rejects_what_the_constructor_rejects(self, change):
        d = _config().as_dict()
        for name, value in change.items():
            if value is _ABSENT:
                del d[name]
            else:
                d[name] = value
        with pytest.raises(Exception) as direct:
            Configuration(**d)
        with pytest.raises(direct.type):
            Configuration.from_dict(d)
        _assert_same_verdict(d)

    def test_defaults_fill_optional_fields(self):
        d = _config(e=3).as_dict()
        for name in ("layout", "smem_per_block", "unroll", "loop_order"):
            del d[name]
        _assert_same_verdict(d)
        assert Configuration.from_dict(d).layout is Layout.CHW

    def test_layout_values_decode_to_their_members(self):
        class Name(str):
            pass

        for layout in Layout.all():
            for value in (layout.value, Name(layout.value), layout):
                d = _config().as_dict()
                d["layout"] = value
                assert Configuration.from_dict(d).layout is layout
                assert Configuration(**d).layout is layout

    def test_other_mappings_go_through_the_constructor(self):
        d = _config().as_dict()
        _assert_same_verdict(types.MappingProxyType(d))
        _assert_same_verdict(list(d.items()))

    @settings(max_examples=60, deadline=None)
    @given(
        space=_spaces(),
        rng=st.randoms(use_true_random=False),
        drop=st.sets(st.sampled_from(("layout", "smem_per_block", "e", "unroll", "loop_order"))),
        field=st.sampled_from(tuple(_config().as_dict())),
        value=st.one_of(
            st.just(_ABSENT),
            st.integers(-2, 9),
            st.booleans(),
            st.floats(allow_nan=False),
            st.text(max_size=3),
            st.none(),
            st.sampled_from(("direct", "winograd", "HWC", "zxy", Layout.CWH)),
        ),
    )
    def test_same_verdict_over_sampled_spaces(self, space, rng, drop, field, value):
        config = space.random_configuration(rng)
        d = config.as_dict()
        # A wire payload's key order (sorted), as a client decodes it.
        _assert_same_verdict(dict(sorted(d.items())))
        assert Configuration.from_dict(d) == config
        for name in drop:
            del d[name]
        _assert_same_verdict(d)
        if value is _ABSENT:
            d.pop(field, None)
        else:
            d[field] = value
        _assert_same_verdict(d)


class TestBuildProfile:
    def test_basic(self, conv3):
        prof = build_profile(_config(), conv3, V100)
        assert prof.smem_per_block == 16 * 1024
        assert prof.threads_per_block == 52

    def test_rejects_oversized_smem(self, conv3):
        with pytest.raises(ValueError):
            build_profile(_config(smem_per_block=1024 * 1024), conv3, V100)

    def test_rejects_working_set_overflow(self, conv3):
        # A 13x13x384 tile cannot fit in 8 KiB of shared memory.
        cfg = _config(tile_z=384, smem_per_block=8 * 1024, threads_z=1)
        with pytest.raises(ValueError):
            build_profile(cfg, conv3, V100)

    def test_rejects_winograd_for_strided(self, strided_params):
        cfg = _config(algorithm="winograd", tile_x=1, tile_y=1, tile_z=1, threads_x=1, threads_z=1)
        with pytest.raises(ValueError):
            build_profile(cfg, strided_params, V100)

    def test_unroll_affects_efficiency(self, conv3):
        p4 = build_profile(_config(unroll=4), conv3, V100)
        p1 = build_profile(_config(unroll=1), conv3, V100)
        assert p1.compute_efficiency < p4.compute_efficiency

    def test_loop_order_affects_coalescing(self, conv3):
        good = build_profile(_config(loop_order="zyx"), conv3, V100)  # ends in x = CHW contiguous
        bad = build_profile(_config(loop_order="yxz"), conv3, V100)
        assert bad.coalescing < good.coalescing


class TestMeasurer:
    def test_measure_caches(self, conv3):
        m = Measurer(conv3, V100)
        c = _config()
        t1 = m.time_seconds(c)
        t2 = m.time_seconds(c)
        assert t1 == t2
        assert m.num_measurements == 1

    def test_feasibility(self, conv3):
        m = Measurer(conv3, V100)
        assert m.is_feasible(_config())
        assert not m.is_feasible(_config(tile_z=384, smem_per_block=8 * 1024, threads_z=1))

    def test_gflops_positive(self, conv3):
        m = Measurer(conv3, V100)
        assert m.gflops(_config()) > 0


class TestSearchSpace:
    def test_pruned_smaller_than_full(self, conv3):
        full = SearchSpace(conv3, V100, "direct", pruned=False)
        pruned = SearchSpace(conv3, V100, "direct", pruned=True)
        assert 0 < pruned.size() < full.size()

    def test_pruning_ratio_in_paper_range(self, conv3):
        """Table 2 reports the ATE domain at roughly 20–55% of the TVM space."""
        full = SearchSpace(conv3, V100, "direct", pruned=False)
        pruned = SearchSpace(conv3, V100, "direct", pruned=True)
        ratio = pruned.size() / full.size()
        assert 0.1 < ratio < 0.6

    def test_random_configuration_in_space(self, direct_space, pyrng):
        for _ in range(25):
            cfg = direct_space.random_configuration(pyrng)
            assert direct_space.contains(cfg)

    def test_sample_count(self, direct_space, pyrng):
        assert len(direct_space.sample(pyrng, 10)) == 10

    def test_neighbor_stays_in_space(self, direct_space, pyrng):
        cfg = direct_space.random_configuration(pyrng)
        for _ in range(30):
            cfg = direct_space.neighbor(cfg, pyrng)
            assert direct_space.contains(cfg)

    def test_neighbor_changes_something(self, direct_space, pyrng):
        cfg = direct_space.random_configuration(pyrng)
        changed = sum(direct_space.neighbor(cfg, pyrng).key() != cfg.key() for _ in range(10))
        assert changed >= 8

    def test_pruned_tiles_satisfy_table1(self, conv3, pyrng):
        space = SearchSpace(conv3, V100, "direct", pruned=True)
        r = conv3.reuse_factor
        for _ in range(40):
            c = space.random_configuration(pyrng)
            sb = c.smem_per_block // V100.dtype_size
            assert c.tile_x * c.tile_y * c.tile_z <= sb
            assert c.tile_z <= (sb / r) ** 0.5 + 1e-9
            assert c.tile_x * c.tile_y <= (sb * r) ** 0.5 + 1e-9
            assert c.smem_per_block <= V100.shared_mem_per_sm // 2

    def test_contains_rejects_wrong_algorithm(self, direct_space):
        cfg = _config(algorithm="winograd", tile_x=13, tile_y=13, tile_z=4)
        assert not direct_space.contains(cfg)

    def test_contains_rejects_non_divisor_tile(self, direct_space):
        assert not direct_space.contains(_config(tile_x=5, threads_x=5))

    def test_winograd_space(self, conv3, pyrng):
        space = SearchSpace(conv3, V100, "winograd", pruned=True)
        cfg = space.random_configuration(pyrng)
        assert cfg.algorithm == "winograd"
        assert cfg.e in (2, 3, 4)

    def test_winograd_space_rejects_strided(self, strided_params):
        with pytest.raises(ValueError):
            SearchSpace(strided_params, V100, "winograd")

    def test_winograd_space_rejects_empty_e_options(self, conv3):
        with pytest.raises(ValueError, match="e option"):
            SearchSpace(conv3, V100, "winograd", e_options=())

    def test_describe(self, direct_space):
        assert "pruned" in direct_space.describe()

    def test_size_equals_oracle_on_zoo(self):
        """The closed-form count equals the enumerating loop on every zoo
        space: 59 layers x 2 GPUs x (direct, plus Winograd for 3x3 stride 1)
        x pruned/unpruned."""
        spaces = zoo_spaces()
        assert len(spaces) == 348
        for space in spaces:
            assert space.size() == oracle_size(space), space.describe()

    @settings(max_examples=100, deadline=None)
    @given(space=_spaces())
    @example(space=SearchSpace(ConvParams.square(13, 3, 31, kernel=3, padding=1), V100))
    @example(space=SearchSpace(
        ConvParams.square(27, 5, 7, kernel=5, padding=2), GTX_1080TI, "winograd",
        pruned=True, e_options=(3, 5),
    ))
    @example(space=SearchSpace(
        ConvParams.square(29, 4, 17, kernel=1, stride=2),
        dataclasses.replace(V100, shared_mem_per_sm=3000, max_threads_per_block=48),
        pruned=True,
    ))
    @example(space=SearchSpace(
        ConvParams.square(11, 2, 9, kernel=3, stride=2, padding=1), V100,
        max_threads_per_block=16,
    ))
    def test_size_equals_oracle(self, space):
        """On generated problems the count equals the loop, and on small
        spaces the loop's configurations number exactly ``size()``, all lie
        in the space, and none repeats."""
        size = space.size()
        assert size == oracle_size(space)
        if size > 200_000:
            return
        chunks = list(oracle_configs(space))
        assert sum(len(chunk) for chunk in chunks) == size
        for chunk in chunks:
            assert space.contains_batch(chunk).all()
        keys = ConfigArray.concat(chunks).key_matrix()
        keys = keys[np.lexsort(keys.T)]
        assert (np.diff(keys, axis=0) != 0).any(axis=1).all()

    def test_tile_mask_agrees_with_scalar_on_an_exact_boundary(self):
        """With e = 3 and a 3x3 kernel the Winograd overhead 50/9 is inexact,
        and a 5x3x3 tile in 250 elements sits on the boundary: the mask must
        round like the scalar predicate, or ``contains_batch`` (and the
        count) accepts a tile ``contains`` rejects."""
        params = ConvParams(
            in_height=3, in_width=5, in_channels=1, out_channels=3, padding=1
        )
        spec = dataclasses.replace(V100, shared_mem_per_sm=1000)
        space = SearchSpace(params, spec, "winograd", e_options=(3,))
        tile = Configuration(
            algorithm="winograd", tile_x=5, tile_y=3, tile_z=3,
            threads_x=1, threads_y=1, threads_z=1, smem_per_block=1000, e=3,
        )
        assert not space.contains(tile)
        assert not space.contains_batch(ConfigArray.from_configs([tile]))[0]
        assert space.size() == oracle_size(space)


class TestFeatures:
    def test_vector_length_matches_names(self, conv3):
        v = feature_vector(_config(), conv3, V100)
        assert v.shape == (len(FEATURE_NAMES),)

    def test_matrix_shape(self, conv3):
        m = feature_matrix([_config(), _config(unroll=2)], conv3, V100)
        assert m.shape == (2, len(FEATURE_NAMES))

    def test_empty_matrix(self, conv3):
        assert feature_matrix([], conv3, V100).shape == (0, len(FEATURE_NAMES))

    def test_features_finite(self, conv3, pyrng):
        space = SearchSpace(conv3, V100, "direct", pruned=True)
        m = feature_matrix(space.sample(pyrng, 20), conv3, V100)
        assert np.all(np.isfinite(m))

    def test_different_configs_different_features(self, conv3):
        a = feature_vector(_config(), conv3, V100)
        b = feature_vector(_config(tile_z=8, threads_z=1), conv3, V100)
        assert not np.allclose(a, b)
