"""Hilbert-curve properties of the array encode/decode, checked against the
scalar reference in hilbert_reference, and grid-point key embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_reference import decode, encode, grid_point_key
from sfcdd import sfc


def brute_force_curve(cfg):
    """Decode every key; independent walk used as the adjacency oracle."""
    return [decode(k, cfg) for k in range(1 << cfg.key_bits)]


def test_d2_n1_visits_cells_in_frozen_order():
    cfg = sfc.CurveConfig(2, 1)
    walk = brute_force_curve(cfg)
    assert walk == [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert sorted(walk) == sorted((i, j) for i in range(2) for j in range(2))


def test_d2_n2_golden_walk():
    # freezes the orientation convention of this implementation
    cfg = sfc.CurveConfig(2, 2)
    walk = brute_force_curve(cfg)
    assert walk[:8] == [(0, 0), (1, 0), (1, 1), (0, 1),
                        (0, 2), (0, 3), (1, 3), (1, 2)]
    assert walk[-1] == (3, 0)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_bijective_and_unit_step_adjacent(d, n):
    cfg = sfc.CurveConfig(d, n)
    seen = set()
    prev = None
    for key in range(1 << cfg.key_bits):
        coords = decode(key, cfg)
        assert encode(coords, cfg) == key
        seen.add(coords)
        if prev is not None:
            assert sum(abs(a - b) for a, b in zip(coords, prev)) == 1
        prev = coords
    assert len(seen) == 1 << cfg.key_bits


def test_d3_n2_bijection_all_steps_unit():
    diag = sfc.curve_diagnostics(sfc.CurveConfig(3, 2))
    assert diag == {"bijective": True, "adjacent": True}


def test_d1_is_identity():
    cfg = sfc.CurveConfig(1, 4)
    for k in range(16):
        assert encode((k,), cfg) == k
        assert decode(k, cfg) == (k,)


def test_encode_rejects_out_of_range():
    cfg = sfc.CurveConfig(2, 2)
    with pytest.raises(ValueError):
        encode((4, 0), cfg)
    with pytest.raises(ValueError):
        encode((0, -1), cfg)
    with pytest.raises(ValueError):
        decode(16, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        sfc.CurveConfig(0, 3)
    with pytest.raises(ValueError):
        sfc.CurveConfig(3, 0)
    with pytest.raises(ValueError):
        sfc.CurveConfig(7, 19)  # 133 bits


def test_keys_can_exceed_64_bits():
    cfg = sfc.CurveConfig(6, 11)  # 66-bit keys
    coords = tuple((1 << 11) - 1 for _ in range(6))
    key = encode(coords, cfg)
    assert key < 1 << 66
    assert decode(key, cfg) == coords
    assert max(encode(c, cfg) for c in [coords, (0,) * 6, (2047, 0) * 3]) >= 1 << 63


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=4, max_size=4))
def test_round_trip_d4_n3(coords):
    cfg = sfc.CurveConfig(4, 3)
    assert decode(encode(coords, cfg), cfg) == tuple(coords)


def test_round_trip_random_d4_n3_bulk():
    cfg = sfc.CurveConfig(4, 3)
    rng = np.random.default_rng(7)
    for coords in rng.integers(0, 8, size=(1000, 4)):
        key = encode(coords, cfg)
        assert decode(key, cfg) == tuple(int(c) for c in coords)


def test_decode_examples():
    assert decode(0, sfc.CurveConfig(2, 1)) == (0, 0)
    assert decode(7, sfc.CurveConfig(1, 4)) == (7,)


def as_key(hi, lo, k):
    return (int(hi[k]) << 64) | int(lo[k])


def random_coords(rng, dim, bits, count):
    """(dim, count) uint64 coordinates in [0, 2**bits), corners included."""
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(dim, count),
                         dtype=np.uint64, endpoint=True)
    coords = words >> np.uint64(64 - bits)
    coords[:, 0] = 0
    coords[:, 1] = (1 << bits) - 1
    return coords


class TestEncodeMany:
    # key widths up to 128 bits; (6, 11), (10, 7) and (6, 12) are the
    # 66-, 70- and 72-bit curves of the grids (11,1,1,1,1,1),
    # (7,3,3,3,1,1,1,1,1,1) and (12,2,1,1,1,1)
    CURVES = [(1, 9), (1, 64), (2, 5), (2, 32), (2, 64), (3, 4), (3, 21),
              (3, 42), (4, 3), (4, 16), (4, 32), (5, 3), (5, 13), (5, 25),
              (6, 3), (6, 10), (6, 11), (6, 12), (6, 21), (10, 7)]

    @pytest.mark.parametrize("dim,bits", CURVES)
    def test_matches_scalar_encode(self, dim, bits):
        cfg = sfc.CurveConfig(dim, bits)
        coords = random_coords(np.random.default_rng(dim * 100 + bits),
                               dim, bits, 300)
        hi, lo = sfc.encode_many(coords, bits)
        for k in range(coords.shape[1]):
            expected = encode([int(c) for c in coords[:, k]], cfg)
            assert as_key(hi, lo, k) == expected

    @pytest.mark.parametrize("dim,bits", CURVES)
    def test_decode_many_inverts_and_matches_scalar_decode(self, dim, bits):
        cfg = sfc.CurveConfig(dim, bits)
        coords = random_coords(np.random.default_rng(dim * 100 + bits + 1),
                               dim, bits, 300)
        key = sfc.encode_many(coords, bits)
        back = sfc.decode_many(key, dim, bits)
        assert back.dtype == np.uint64
        np.testing.assert_array_equal(back, coords)
        rng = np.random.default_rng(bits)
        keys = sfc.random_keys(rng, cfg.key_bits, 300)
        hi, lo = sfc.key_words(keys)
        cells = sfc.decode_many((hi, lo), dim, bits)
        for k, key_k in enumerate(keys):
            assert tuple(int(c) for c in cells[:, k]) == decode(key_k, cfg)
        hi2, lo2 = sfc.encode_many(cells, bits)
        np.testing.assert_array_equal(hi2, hi)
        np.testing.assert_array_equal(lo2, lo)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_one_bit_curves_walk_the_cube(self, dim):
        cfg = sfc.CurveConfig(dim, 1)
        coords = np.indices((2,) * dim, dtype=np.uint64).reshape(dim, -1)
        hi, lo = sfc.encode_many(coords, 1)
        assert not hi.any()
        for k in range(coords.shape[1]):
            assert int(lo[k]) == encode([int(c) for c in coords[:, k]], cfg)
        assert sorted(lo.tolist()) == list(range(1 << dim))
        lo_keys = np.arange(1 << dim, dtype=np.uint64)
        walk = sfc.decode_many((np.zeros_like(lo_keys), lo_keys), dim, 1)
        assert [tuple(int(c) for c in walk[:, k]) for k in range(1 << dim)] \
            == brute_force_curve(cfg)

    def test_empty_input(self):
        hi, lo = sfc.encode_many(np.zeros((3, 0), dtype=np.uint64), 4)
        assert hi.shape == lo.shape == (0,)
        assert sfc.decode_many((hi, lo), 3, 4).shape == (3, 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sfc.encode_many(np.array([[4], [0]], dtype=np.uint64), 2)
        with pytest.raises(ValueError):
            sfc.encode_many(np.zeros(3, dtype=np.uint64), 2)  # not (dim, N)
        with pytest.raises(ValueError):
            sfc.encode_many(np.zeros((7, 1), dtype=np.uint64), 19)  # 133 bits
        with pytest.raises(ValueError):
            sfc.decode_many(([0], [16]), 2, 2)
        with pytest.raises(ValueError):
            sfc.decode_many(([1 << 2], [0]), 6, 11)  # 66-bit key width


@pytest.mark.parametrize("key_bits", [1, 63, 64, 65, 128])
def test_key_words_round_trip(key_bits):
    keys = [0, (1 << key_bits) - 1,
            *sfc.random_keys(np.random.default_rng(key_bits), key_bits, 200)]
    hi, lo = sfc.key_words(keys)
    assert hi.dtype == lo.dtype == np.uint64
    assert hi.shape == lo.shape == (len(keys),)
    assert [as_key(hi, lo, k) for k in range(len(keys))] == keys
    if key_bits <= 64:
        assert not hi.any()


def spot_check_reference(cfg, keys):
    """The loop that spot_check replaced: scalar round trips and unit steps,
    key by key."""
    ok_bij = ok_adj = True
    for key in keys:
        c = decode(key, cfg)
        ok_bij &= encode(c, cfg) == key
        c2 = decode(key + 1, cfg)
        ok_adj &= sum(abs(a - b) for a, b in zip(c, c2)) == 1
    return {"bijective": ok_bij, "adjacent": ok_adj}


class TestSpotCheck:
    @staticmethod
    def keys_of(cfg, seed):
        """The 1,000 keys sfc-check draws, each with key + 1 on the curve."""
        last = (1 << cfg.key_bits) - 1
        return [k % last for k in
                sfc.random_keys(np.random.default_rng(seed), cfg.key_bits, 1000)]

    # 80-, 66-, 126- and 66-bit keys
    @pytest.mark.parametrize("dim,bits", [(2, 40), (6, 11), (6, 21), (22, 3)])
    def test_matches_scalar_reference_key_by_key(self, dim, bits):
        cfg = sfc.CurveConfig(dim, bits)
        keys = self.keys_of(cfg, dim * 100 + bits)
        assert sfc.spot_check(cfg, keys) == spot_check_reference(cfg, keys) \
            == {"bijective": True, "adjacent": True}
        for shift in (0, 1):  # the cells of k and of k + 1
            cells = sfc.decode_many(sfc.key_words([k + shift for k in keys]),
                                    dim, bits)
            for j, key in enumerate(keys):
                assert tuple(int(c) for c in cells[:, j]) == \
                    decode(key + shift, cfg)

    def test_d1_up_to_128_bits_is_the_identity(self, monkeypatch):
        monkeypatch.setattr(sfc, "decode_many", None)  # never decoded
        cfg = sfc.CurveConfig(1, 128)
        assert sfc.spot_check(cfg, self.keys_of(cfg, 0)) == {
            "bijective": True, "adjacent": True}

    def test_wrapped_jump_across_the_lattice_is_not_a_step(self, monkeypatch):
        # at bits = 64 the cells 0 and 2**64 - 1 differ by 1 in int64
        calls = []

        def decode_many(key, dim, bits):
            calls.append(key)
            x = np.zeros((dim, len(key[1])), dtype=np.uint64)
            if len(calls) == 2:
                x[0] = np.iinfo(np.uint64).max
            return x
        monkeypatch.setattr(sfc, "decode_many", decode_many)
        diag = sfc.spot_check(sfc.CurveConfig(2, 64), [0, 5])
        assert len(calls) == 2
        assert diag["adjacent"] is False


class TestCurveDiagnostics:
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 2), (4, 2)])
    def test_chunked_walk_checks_every_step(self, monkeypatch, d, n):
        monkeypatch.setattr(sfc, "DIAGNOSTIC_CHUNK", 8)
        assert sfc.curve_diagnostics(sfc.CurveConfig(d, n)) == {
            "bijective": True, "adjacent": True}

    def test_walk_over_several_default_chunks(self):
        cfg = sfc.CurveConfig(2, 9)  # 2**18 keys, four chunks
        assert 1 << cfg.key_bits > 2 * sfc.DIAGNOSTIC_CHUNK
        assert sfc.curve_diagnostics(cfg) == {
            "bijective": True, "adjacent": True}

    def test_detects_a_broken_step_across_a_chunk_boundary(self, monkeypatch):
        # every chunk walked backwards: unit steps inside each chunk, the
        # only broken ones are where two chunks meet
        decode_many = sfc.decode_many
        monkeypatch.setattr(sfc, "DIAGNOSTIC_CHUNK", 8)
        monkeypatch.setattr(sfc, "decode_many",
                            lambda key, dim, bits: decode_many(key, dim, bits)[:, ::-1])
        diag = sfc.curve_diagnostics(sfc.CurveConfig(2, 3))
        assert diag == {"bijective": False, "adjacent": False}


class TestGridPointKey:
    def test_isotropic_matches_plain_encode(self):
        levels = (3, 3)
        cfg = sfc.CurveConfig(2, 3)
        for k1 in range(1, 8):
            for k2 in range(1, 8):
                expected = encode((k1 - 1, k2 - 1), cfg)
                assert grid_point_key((k1, k2), levels) == expected

    def test_anisotropic_scales_coarse_axis(self):
        # l=(2,3): axis-1 indices are stretched by 2 on the level-3 lattice
        levels = (2, 3)
        cfg = sfc.CurveConfig(2, 3)
        for k1 in range(1, 4):
            for k2 in range(1, 8):
                expected = encode(((k1 - 1) * 2, k2 - 1), cfg)
                assert grid_point_key((k1, k2), levels) == expected

    def test_all_21_interior_points_of_l23_distinct(self):
        levels = (2, 3)
        keys = {grid_point_key((k1, k2), levels)
                for k1 in range(1, 4) for k2 in range(1, 8)}
        assert len(keys) == 21

    def test_injective_random_level_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            levels = tuple(int(v) for v in rng.integers(1, 5, size=d))
            pts = set()
            keys = set()
            for _ in range(200):
                k = tuple(int(rng.integers(1, (1 << l))) for l in levels)
                if any(kj > (1 << lj) - 1 for kj, lj in zip(k, levels)):
                    continue
                pts.add(k)
                keys.add(grid_point_key(k, levels))
            assert len(keys) == len(pts)

    def test_rejects_boundary_indices(self):
        with pytest.raises(ValueError):
            grid_point_key((0, 1), (2, 2))
        with pytest.raises(ValueError):
            grid_point_key((4, 1), (2, 2))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match="integer"):
            grid_point_key((1.5, 1), (2, 2))
        with pytest.raises(ValueError, match="integer"):
            grid_point_key((1, 1), (2, 2.5))
        assert grid_point_key(np.array([1, 2]), np.array([2, 2])) == \
            grid_point_key((1, 2), (2, 2))


def random_key_reference(rng, key_bits):
    """The per-key draw that random_keys replaced: one rng.bytes per key."""
    nbytes = (key_bits + 7) // 8
    return int.from_bytes(rng.bytes(nbytes), "little") & ((1 << key_bits) - 1)


def holder_estimate_reference(cfg, samples, seed=0):
    """The loop that holder_estimate replaced: one scalar decode pair per
    sample, drawn key by key."""
    rng = np.random.default_rng(seed)
    inv_side = 1.0 / cfg.side
    inv_total = math.ldexp(1.0, -cfg.key_bits)
    exponent = 1.0 / cfg.dim
    worst = 0.0
    for _ in range(samples):
        k1 = random_key_reference(rng, cfg.key_bits)
        k2 = random_key_reference(rng, cfg.key_bits)
        if k1 == k2:
            continue
        p1 = decode(k1, cfg)
        p2 = decode(k2, cfg)
        dist = math.sqrt(
            sum((a - b) * (a - b) for a, b in zip(p1, p2))
        ) * inv_side
        param = abs(k1 - k2) * inv_total
        worst = max(worst, dist / param**exponent)
    return worst


class TestRandomKeys:
    @pytest.mark.parametrize("key_bits", [1, 2, 7, 8, 9, 24, 31, 32, 33, 40,
                                          63, 64, 65, 66, 70, 96, 127, 128])
    def test_same_stream_as_per_key_draws(self, key_bits):
        rng = np.random.default_rng(key_bits)
        ref = np.random.default_rng(key_bits)
        for count in (1, 2, 5, 0, 1000):  # odd counts leave half a 64-bit draw
            keys = sfc.random_keys(rng, key_bits, count)
            assert keys == [random_key_reference(ref, key_bits)
                            for _ in range(count)]
            assert rng.bit_generator.state == ref.bit_generator.state
        assert all(0 <= k < 1 << key_bits for k in keys)
        assert rng.integers(1 << 62) == ref.integers(1 << 62)


class TestHolder:
    # criterion 3's curves, the curves sfc-check walks at --dim 3, 6 and
    # 22, and keys of up to 128 bits; d=1 keys of 70 bits are never decoded
    CURVES = ([(d, 4) for d in range(2, 7)]
              + [(3, n) for n in range(1, 6)] + [(6, n) for n in range(1, 12)]
              + [(22, n) for n in range(1, 4)]
              + [(1, 8), (2, 6), (3, 4), (1, 70), (2, 64), (4, 32), (2, 40)])

    @pytest.mark.parametrize("dim,bits", CURVES)
    def test_matches_scalar_reference_bitwise(self, dim, bits):
        cfg = sfc.CurveConfig(dim, bits)
        for samples, seed in ((2, 0), (3, dim), (2000, dim * 100 + bits)):
            assert (sfc.holder_estimate(cfg, samples, seed=seed)
                    == holder_estimate_reference(cfg, samples, seed=seed))

    def test_d1_estimate_is_one(self):
        est = sfc.holder_estimate(sfc.CurveConfig(1, 8), 500, seed=0)
        assert est <= 1.0 + 1e-12
        assert est == pytest.approx(1.0)

    def test_d2_below_bound(self):
        est = sfc.holder_estimate(sfc.CurveConfig(2, 6), 10_000, seed=1)
        assert 0.0 < est <= 2.0 * math.sqrt(5)

    def test_d3_below_bound(self):
        est = sfc.holder_estimate(sfc.CurveConfig(3, 4), 10_000, seed=2)
        assert est <= 2.0 * math.sqrt(6)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            sfc.holder_estimate(sfc.CurveConfig(2, 2), 1)
