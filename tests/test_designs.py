import hashlib
import math
import warnings
from itertools import combinations

import pytest

from ekcodes import (
    BlockDesign,
    Code,
    ParameterError,
    affine_plane,
    compose_code,
    design_from_json,
    design_to_json,
    develop_difference_set,
    enumerate_words,
    greedy_code,
    greedy_packing,
    known_value,
    orbit_code,
    packing_bound,
    planar_difference_set,
    upper_bound,
    verify_code,
    verify_design,
    zero_sum_quadruples,
)
from ekcodes import _greedy_fast, designs
from ekcodes._greedy_fast import _permuted_chunks
from ekcodes.cyclic import CyclicGeneratorPair


def test_verify_design_labels():
    design = affine_plane(3)
    assert verify_design(design).label == "design"
    bad = BlockDesign(4, 2, ((0, 1, 2), (1, 2, 3)))
    verdict = verify_design(bad)
    assert verdict.label == "invalid" and verdict.violation == (1, 2)
    assert verify_design(BlockDesign(5, 2, ())).label == "packing"


def test_verify_design_refuses_oversized_input():
    with pytest.raises(ParameterError):
        verify_design(BlockDesign(100, 5, ()))


def test_affine_plane_small():
    design = affine_plane(3)
    assert design.v == 9 and len(design.blocks) == 12
    assert all(len(b) == 3 for b in design.blocks)
    assert verify_design(design).label == "design"


def test_affine_plane_five():
    design = affine_plane(5)
    assert len(design.blocks) == 30
    assert verify_design(design).label == "design"


def test_affine_plane_rejects_composite():
    for p in (1, 4, 6, 9):
        with pytest.raises(ParameterError):
            affine_plane(p)


def test_zero_sum_quadruples():
    tiny = zero_sum_quadruples(2)
    assert tiny.blocks == ((0, 1, 2, 3),)
    design = zero_sum_quadruples(3)
    assert design.v == 8 and len(design.blocks) == 14
    assert verify_design(design).label == "design"
    for block in design.blocks:
        acc = 0
        for x in block:
            acc ^= x
        assert acc == 0
    with pytest.raises(ParameterError):
        zero_sum_quadruples(1)


def test_zero_sum_quadruples_match_packing_bound():
    design = zero_sum_quadruples(3)
    assert len(design.blocks) == packing_bound(8, 4, 3).floor_value == 14


PLANAR_SETS = [
    (2, 7, (0, 1, 3)),
    (3, 13, (0, 1, 3, 9)),
    (4, 21, (0, 1, 4, 14, 16)),
    (5, 31, (0, 1, 3, 8, 12, 18)),
    (7, 57, (0, 1, 3, 13, 32, 36, 43, 52)),
    (8, 73, (0, 1, 3, 7, 15, 31, 36, 54, 63)),
    (9, 91, (0, 1, 3, 9, 27, 49, 56, 61, 77, 81)),
]


@pytest.mark.parametrize("q,m,expected", PLANAR_SETS, ids=[f"{q}-{m}" for q, m, _ in PLANAR_SETS])
def test_planar_difference_set_found_and_develops(q, m, expected):
    found = planar_difference_set(q)
    assert found == expected  # the first set in increasing-residue tree order
    diffs = {(a - b) % m for a in found for b in found if a != b}
    assert len(diffs) == q * (q + 1)  # all nonzero differences distinct
    developed = develop_difference_set(found, m)
    assert len(developed.blocks) == m
    assert verify_design(developed).label == "design"


def test_planar_difference_set_exhausts_for_order_six():
    assert planar_difference_set(6) is None


def test_known_seed_is_a_valid_difference_set():
    # the multiplicative orbit of 2 mod 73 is a valid 9-element candidate
    orbit = sorted({pow(2, i, 73) for i in range(9)})
    assert len(orbit) == 9
    diffs = {(a - b) % 73 for a in orbit for b in orbit if a != b}
    assert len(diffs) == 72


def test_develop_difference_set_fano():
    fano = develop_difference_set((1, 2, 4), 7)
    assert len(fano.blocks) == 7
    assert verify_design(fano).label == "design"


def test_develop_difference_set_singletons():
    design = develop_difference_set((0,), 5)
    assert design.blocks == ((0,), (1,), (2,), (3,), (4,))
    assert verify_design(design).label == "packing"


@pytest.mark.parametrize("m", [0, -7])
def test_develop_difference_set_refuses_a_modulus_below_one(m):
    with pytest.raises(ParameterError, match=f"m={m}"):
        develop_difference_set((1, 2), m)


def test_greedy_packing_basic():
    for seed in (0, 1, 7):
        packing = greedy_packing(9, 3, 2, seed)
        assert verify_design(packing).label in ("packing", "design")
        assert 8 <= len(packing.blocks) <= 12
    assert len(greedy_packing(8, 4, 3, 3).blocks) <= 14


def test_greedy_packing_t_equals_p():
    packing = greedy_packing(6, 3, 3, 0)
    assert len(packing.blocks) == math.comb(6, 3)


def test_greedy_packing_deterministic():
    assert greedy_packing(9, 3, 2, 5).blocks == greedy_packing(9, 3, 2, 5).blocks


def _greedy_packing_oracle(v, p, t, seed):
    """Per block, in the same seeded order: keep it iff no t-subset of it is covered yet."""
    candidates = list(combinations(range(v), p))
    covered = set()
    blocks = []
    for ids in _permuted_chunks(math.comb(v, p), seed, 1000):
        for block in (candidates[i] for i in ids.tolist()):
            subs = list(combinations(block, t))
            if covered.isdisjoint(subs):
                covered.update(subs)
                blocks.append(block)
    return tuple(sorted(blocks))


@pytest.mark.parametrize(
    "v,p,t", [(6, 3, 3), (7, 3, 2), (9, 3, 2), (8, 4, 3), (10, 4, 2), (10, 5, 3), (12, 4, 4), (13, 2, 1)]
)
def test_greedy_packing_matches_per_block_oracle(v, p, t):
    for seed in (0, 1, 7, 2**40):
        packing = greedy_packing(v, p, t, seed)
        assert packing.blocks == _greedy_packing_oracle(v, p, t, seed), seed
        assert verify_design(packing).label in ("packing", "design")


@pytest.mark.parametrize(
    "v,p,t", [(7, 3, 2), (9, 3, 2), (10, 4, 3), (12, 4, 2), (13, 3, 2), (14, 6, 4), (11, 5, 5), (8, 1, 1), (9, 4, 1)]
)
def test_greedy_packing_is_the_distance_greedy_at_one_part(v, p, t):
    """Claiming t-subsets keeps the blocks that the s = 1 distance rule keeps, d = p - t + 1, over one stream."""
    for seed in (0, 7, 2**40):
        code = greedy_code(v, p, p - t + 1, seed, s=1)
        assert greedy_packing(v, p, t, seed).blocks == tuple(map(tuple, code.rows.tolist())), seed


@pytest.mark.parametrize(
    "v,p,t,seed,digest",
    [
        (30, 5, 2, 0, "81598131022457d0cddef22c1dbe638802ce5cdebf053425249dce14e1a1fb6b"),
        (30, 5, 2, 2**40, "87136bf98fb2f8dedf45ca9e12d518517da6281bdf8866ad69a54a7d90193fb3"),
        (40, 4, 2, 0, "f32487211f7a0a55b3820d541c1c831d3cd9fb56b2bc3a496e3ac6ec370e5f90"),
        (40, 4, 2, 2**40, "37eef660f7e3b7ede581d3c163145c43ba757ca2f44f0ad6013fae5485babc9a"),
        (25, 5, 3, 0, "cb9dc09bcf180fd64ca372fc6b880e6792462d7aa1218370acd8c0478ae6f6e9"),
        (25, 5, 3, 2**40, "4ec7c630bb768294abf639e2ee7709225a69165a4356492c0f359a80a9aa291e"),
        (20, 4, 3, 0, "7fbea492c0ed50ac69449bd65edb1ab2ff4b9ba852816eea7b12b25eb81b2d46"),
        (20, 4, 3, 2**40, "3636e20c298f8c9ecf04acbf83653b065be3ca2eeb57bb23d676b5d7fe2b8e09"),
    ],
    ids=lambda value: str(value) if isinstance(value, int) else "sha256",
)
def test_greedy_packing_json_is_pinned(v, p, t, seed, digest):
    text = design_to_json(greedy_packing(v, p, t, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_greedy_packing_reads_the_chunk_at_call_time(monkeypatch):
    """A patched _greedy_fast._CHUNK reaches greedy_packing's chunks and leaves its JSON unchanged."""
    chunks = []
    real = designs._permuted_chunks
    monkeypatch.setattr(designs, "_permuted_chunks", lambda m, seed, chunk: chunks.append(chunk) or real(m, seed, chunk))
    for v, p, t, seed, chunk in ((12, 4, 2, 3, 7), (13, 2, 1, 0, 7), (30, 5, 2, 1, 6000)):
        monkeypatch.setattr(_greedy_fast, "_CHUNK", 1 << 20)
        expected = design_to_json(greedy_packing(v, p, t, seed))
        monkeypatch.setattr(_greedy_fast, "_CHUNK", chunk)
        chunks.clear()
        assert design_to_json(greedy_packing(v, p, t, seed)) == expected, (v, p, t, chunk)
        assert chunks == [max(1, chunk // math.comb(p, t))]


@pytest.mark.parametrize("v,p,t", [(30, 28, 14), (24, 20, 10)])
def test_greedy_packing_refuses_oversized_claims(v, p, t):
    # (30, 28, 14) has C(30, 14) t-subsets to claim, (24, 20, 10) C(24, 20) * C(20, 10) keys
    with pytest.raises(ParameterError, match="cap"):
        greedy_packing(v, p, t, 0)


def test_greedy_packing_refuses_negative_seed():
    with pytest.raises(ParameterError, match="seed"):
        greedy_packing(9, 3, 2, -1)


def full_universe_code(n, k, d):
    code = Code(n, k, 2, 0, d, frozenset(enumerate_words(n, k, 2)))
    verify_code(code)
    return code


def test_compose_prop4_instance():
    sqs = zero_sum_quadruples(3)
    base = full_universe_code(4, 2, 2)
    composed = compose_code(sqs, base, k=2, d=2)
    assert len(composed) == 42
    assert verify_code(composed) == 2
    assert known_value(8, 2, 2).floor_value == 42
    assert upper_bound(8, 2, 2).floor_value == 42


def test_compose_sqs64_verifies_exactly():
    """SQS(64) with the 3-word (4,2,2) base: 31,248 words, the bound, at minimum distance exactly 2."""
    composed = compose_code(zero_sum_quadruples(6), full_universe_code(4, 2, 2), k=2, d=2)
    assert len(composed) == 31_248 == upper_bound(64, 2, 2).floor_value
    assert verify_code(composed) == composed.verified_min_distance == 2


def test_compose_requires_matching_strength():
    sqs = zero_sum_quadruples(3)
    base = full_universe_code(4, 2, 2)
    with pytest.raises(ParameterError, match="needs t"):
        compose_code(sqs, base, k=2, d=3)


def test_compose_refuses_unverified_base():
    sqs = zero_sum_quadruples(3)
    base = Code(4, 2, 2, 0, 2, frozenset(enumerate_words(4, 2, 2)))
    with pytest.raises(ParameterError, match="unverified"):
        compose_code(sqs, base, k=2, d=2)


def test_compose_refuses_weak_base():
    design = BlockDesign(8, 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    base = full_universe_code(4, 2, 2)  # verified distance 2 < required 3
    with pytest.raises(ParameterError, match="< 3"):
        compose_code(design, base, k=2, d=3)


def test_compose_warns_on_missing_block_size():
    blocks = ((0, 1, 2, 3), (4, 5, 6, 7, 8))
    design = BlockDesign(9, 3, blocks)
    base = full_universe_code(4, 2, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        composed = compose_code(design, base, k=2, d=2)
    assert any("block size 5" in str(w.message) for w in caught)
    assert len(composed) == 3  # only the 4-point block contributes


def test_compose_steiner_count_identity():
    # over a Steiner system, |composed| = (C(n,2)/C(p,2)) * |base|
    pds = planar_difference_set(2)
    fano = develop_difference_set(pds, 7)
    base = orbit_code(CyclicGeneratorPair(3, (1,), (2,)))
    verify_code(base)
    composed = compose_code(fano, base, k=1, d=1)
    assert len(composed) == (math.comb(7, 2) // math.comb(3, 2)) * len(base)
    assert verify_code(composed) >= 1


def test_design_json_round_trip():
    design = affine_plane(3)
    text = design_to_json(design)
    back = design_from_json(text)
    assert back.v == design.v and back.t == design.t and back.blocks == design.blocks
    assert design_to_json(back) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: affine_plane(5),
        lambda: zero_sum_quadruples(3),
        lambda: develop_difference_set((0, 1, 3), 7),
        lambda: greedy_packing(9, 3, 2, seed=4),
    ],
    ids=["affine_plane", "zero_sum_quadruples", "develop_difference_set", "greedy_packing"],
)
def test_design_json_round_trip_is_equal(build):
    design = build()
    assert design_from_json(design_to_json(design)) == design


@pytest.mark.parametrize("q", [2.5, "3", 3.0])
def test_planar_difference_set_order_must_be_an_integer(monkeypatch, q):
    monkeypatch.setattr(designs, "_residue_tables", lambda m: pytest.fail("a node ran"))
    with pytest.raises(TypeError):
        planar_difference_set(q)


def test_planar_difference_set_reads_a_bool_as_an_integer():
    with pytest.raises(ParameterError, match="need q >= 2, got 1"):
        planar_difference_set(True)
    with pytest.raises(ParameterError, match="need q >= 2, got 0"):
        planar_difference_set(False)
