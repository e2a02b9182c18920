import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcodes import (
    CyclicGeneratorPair,
    ParameterError,
    canonical_generator_form,
    canonicalize,
    circular_distance,
    generators_equivalent,
    is_antagonistic,
    multi_orbit_code,
    orbit_code,
    search_antagonistic,
    verify_code,
)
from ekcodes import cyclic

# the published antagonistic pairs mod 2k^2+1, translated to residues
PAIR_K1 = CyclicGeneratorPair(3, (1,), (2,))
PAIR_K2 = CyclicGeneratorPair(9, (1, 8), (2, 3))
PAIR_K3 = CyclicGeneratorPair(19, (1, 5, 19), (2, 13, 15))  # 19 = 0 mod 19


def test_circular_distance_values():
    assert circular_distance(1, 8, 9) == 2
    assert circular_distance(5, 5, 7) == 0
    assert circular_distance(0, 5, 10) == 5
    assert circular_distance(-1, 1, 9) == 2  # inputs reduced mod m


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 100), st.data())
def test_circular_distance_shift_invariance(m, data):
    a = data.draw(st.integers(0, m - 1))
    b = data.draw(st.integers(0, m - 1))
    u = data.draw(st.integers(0, m - 1))
    assert circular_distance(a, b, m) == circular_distance(b, a, m)
    assert circular_distance(a + u, b + u, m) == circular_distance(a, b, m)
    assert 0 <= circular_distance(a, b, m) <= m // 2


def test_circular_distance_shift_invariance_exhaustive():
    for m in range(1, 31):
        for a in range(m):
            for b in range(m):
                base = circular_distance(a, b, m)
                assert base == circular_distance(a + 7, b + 7, m)
                assert base == circular_distance(b, a, m)


def test_generator_pair_validation():
    with pytest.raises(ParameterError):
        CyclicGeneratorPair(9, (1, 2), (2, 3))  # overlap
    with pytest.raises(ParameterError):
        CyclicGeneratorPair(9, (1, 10), (2, 3))  # 10 = 1 collides after reduction
    with pytest.raises(ParameterError):
        CyclicGeneratorPair(9, (1, 2), (3,))  # unequal sizes


def test_published_pairs_are_antagonistic():
    for pair in (PAIR_K1, PAIR_K2, PAIR_K3):
        report = is_antagonistic(pair)
        assert report.ok, report


def test_antagonism_violations_reported():
    report = is_antagonistic(CyclicGeneratorPair(9, (1, 2), (3, 4)))
    assert not report.ok
    assert report.condition == "i"  # equal within-set gaps
    report = is_antagonistic(CyclicGeneratorPair(11, (0, 4), (1, 3)))
    # within distances 4, 2 are distinct; cross d(0,3) = d(4,1) = 3 collide
    assert not report.ok and report.condition == "ii"
    report = is_antagonistic(CyclicGeneratorPair(8, (0,), (4,)))
    assert not report.ok and report.condition == "iii"


def test_cross_within_collisions_are_allowed():
    # the k=3 published pair has cross distances equal to within distances
    s, t = PAIR_K3.s_set, PAIR_K3.t_set
    within = set()
    for group in (s, t):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                within.add(circular_distance(a, b, 19))
    cross = {circular_distance(a, b, 19) for a in s for b in t}
    assert within & cross  # collisions exist, yet the pair verifies
    assert is_antagonistic(PAIR_K3).ok


def test_is_antagonistic_invariant_under_symmetries():
    rng = random.Random(5)
    for pair in (PAIR_K2, PAIR_K3, CyclicGeneratorPair(9, (1, 2), (3, 4))):
        m = pair.m
        verdict = is_antagonistic(pair).ok
        for _ in range(10):
            c = rng.randrange(m)
            rotated = CyclicGeneratorPair(
                m, tuple((x + c) % m for x in pair.s_set), tuple((x + c) % m for x in pair.t_set)
            )
            reflected = CyclicGeneratorPair(
                m, tuple(-x % m for x in pair.s_set), tuple(-x % m for x in pair.t_set)
            )
            swapped = CyclicGeneratorPair(m, pair.t_set, pair.s_set)
            assert is_antagonistic(rotated).ok == verdict
            assert is_antagonistic(reflected).ok == verdict
            assert is_antagonistic(swapped).ok == verdict


def test_orbit_code_published_values():
    for pair, size, dist in ((PAIR_K1, 3, 1), (PAIR_K2, 9, 3), (PAIR_K3, 19, 5)):
        code = orbit_code(pair)
        assert len(code) == size
        assert code.d == 2 * pair.k - 1
        assert verify_code(code) == dist


def test_orbit_code_refuses_non_antagonistic():
    with pytest.raises(ParameterError, match="condition i"):
        orbit_code(CyclicGeneratorPair(9, (1, 2), (3, 4)))


def test_orbit_intersection_structure():
    # translate structure behind the distance guarantee, checked exhaustively
    for pair in (PAIR_K1, PAIR_K2, PAIR_K3):
        m = pair.m
        shifts = [
            (
                {(x + u) % m for x in pair.s_set},
                {(x + u) % m for x in pair.t_set},
            )
            for u in range(m)
        ]
        for u in range(m):
            su, tu = shifts[u]
            for v in range(u + 1, m):
                sv, tv = shifts[v]
                assert len(su & sv) <= 1
                assert len(tu & tv) <= 1
                assert len(su & tv) <= 1
                assert len(tu & sv) <= 1
                assert not (su & sv and tu & tv)
                assert not (su & tv and tu & sv)


def test_search_rediscovers_k2_pair():
    result = search_antagonistic(2, 9)
    assert result.exhausted
    assert any(generators_equivalent(p, PAIR_K2) for p in result.pairs)


def test_search_rediscovers_k3_pair():
    result = search_antagonistic(3, 19)
    assert result.exhausted
    assert any(generators_equivalent(p, PAIR_K3) for p in result.pairs)


def test_search_k1():
    result = search_antagonistic(1, 3)
    assert result.exhausted
    assert [(p.s_set, p.t_set) for p in result.pairs] == [((0,), (1,))]


def test_search_limit_and_budget():
    limited = search_antagonistic(2, 9, limit=1)
    assert len(limited.pairs) == 1 and not limited.exhausted
    budgeted = search_antagonistic(3, 19, node_budget=50)
    assert not budgeted.exhausted
    assert budgeted.nodes <= 50 + 1
    assert budgeted.frontier  # something left to explore


@pytest.mark.parametrize("budgets", [{"node_budget": -1}, {"wall_budget_s": -1.0}])
def test_search_refuses_negative_budgets(budgets):
    with pytest.raises(ParameterError, match="budget must be nonnegative"):
        search_antagonistic(3, 19, **budgets)


@pytest.mark.parametrize("limit", [0, -1])
def test_search_refuses_an_empty_limit(limit):
    with pytest.raises(ParameterError, match="limit must be >= 1"):
        search_antagonistic(3, 19, limit=limit)


def test_search_limit_must_be_an_integer():
    with pytest.raises(TypeError):
        search_antagonistic(3, 19, limit=1.0)


@pytest.mark.parametrize("budget", [2.5, 3.0, "5"])
def test_search_node_budget_must_be_an_integer(budget):
    with pytest.raises(TypeError):
        search_antagonistic(3, 19, node_budget=budget)


def test_search_zero_wall_budget_stops_at_the_first_clock_read(tmp_path):
    ckpt = tmp_path / "frontier.txt"
    result = search_antagonistic(4, 33, wall_budget_s=0.0, checkpoint=ckpt)
    assert result.nodes == 256 and not result.exhausted  # the wall clock is read every 256 nodes
    assert _tree(result) == _tree(search_antagonistic(4, 33, node_budget=256))
    lines = ckpt.read_text().splitlines()
    assert json.loads(lines[0]) == {"k": 4, "m": 33}
    assert [json.loads(line) for line in lines[1:]] == [{"S": list(s), "T": list(t)} for s, t in result.frontier]


def test_search_zero_node_budget_stops_before_the_root():
    result = search_antagonistic(3, 19, node_budget=0)
    assert result.nodes == 0 and not result.exhausted and len(result.frontier) == 1


def test_search_results_canonical_and_sorted():
    result = search_antagonistic(2, 9)
    keys = [(p.s_set, p.t_set) for p in result.pairs]
    assert keys == sorted(keys)
    for pair in result.pairs:
        assert canonical_generator_form(pair) == (pair.s_set, pair.t_set)


def test_search_infeasible_parameters():
    with pytest.raises(ParameterError):
        search_antagonistic(3, 5)


def test_search_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "frontier.txt"
    full = search_antagonistic(3, 19)
    first = search_antagonistic(3, 19, node_budget=500, checkpoint=ckpt)
    assert not first.exhausted
    assert ckpt.read_text().strip()
    found = {(p.s_set, p.t_set) for p in first.pairs}
    # resume until the tree is done
    for _ in range(100):
        step = search_antagonistic(3, 19, node_budget=2000, checkpoint=ckpt)
        found |= {(p.s_set, p.t_set) for p in step.pairs}
        if step.exhausted:
            break
    assert step.exhausted
    assert ckpt.read_text().strip() == ""
    assert {(p.s_set, p.t_set) for p in full.pairs} <= found


def test_search_checkpoint_refuses_other_parameters(tmp_path):
    ckpt = tmp_path / "frontier.txt"
    first = search_antagonistic(4, 33, node_budget=2000, checkpoint=ckpt)
    assert not first.exhausted
    saved = ckpt.read_text()
    assert json.loads(saved.splitlines()[0]) == {"k": 4, "m": 33}
    with pytest.raises(ParameterError, match=r"\(4, 33\).*\(4, 35\)"):
        search_antagonistic(4, 35, checkpoint=ckpt)
    with pytest.raises(ParameterError, match=r"\(4, 33\).*\(2, 33\)"):
        search_antagonistic(2, 33, node_budget=2000, checkpoint=ckpt)
    assert ckpt.read_text() == saved  # a refused resume leaves the frontier intact
    assert not list(tmp_path.glob("*.tmp"))


def test_search_checkpoint_without_header_is_refused(tmp_path):
    ckpt = tmp_path / "frontier.txt"
    search_antagonistic(3, 19, node_budget=500, checkpoint=ckpt)
    ckpt.write_text("\n".join(ckpt.read_text().splitlines()[1:]) + "\n")
    with pytest.raises(ParameterError, match="no \\(k, m\\) header"):
        search_antagonistic(3, 19, checkpoint=ckpt)


def test_search_checkpoint_with_a_header_alone_is_refused(tmp_path):
    """A header with no frontier line is no proof of exhaustion; only an empty file starts afresh."""
    ckpt = tmp_path / "frontier.txt"
    ckpt.write_text('{"k": 3, "m": 19}\n')
    before = ckpt.read_bytes()
    with pytest.raises(ParameterError, match="header but no frontier"):
        search_antagonistic(3, 19, checkpoint=ckpt)
    assert ckpt.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    ckpt.write_text("")
    assert _tree(search_antagonistic(3, 19, checkpoint=ckpt)) == _tree(search_antagonistic(3, 19))
    assert ckpt.read_text() == ""


def test_search_checkpoint_with_a_header_that_is_not_json_is_refused(tmp_path):
    ckpt = tmp_path / "frontier.txt"
    ckpt.write_text('k=3, m=19\n{"S": [0], "T": []}\n')
    with pytest.raises(ParameterError, match="no \\(k, m\\) header"):
        search_antagonistic(3, 19, checkpoint=ckpt)


def test_search_checkpoint_with_foreign_residues_is_refused(tmp_path):
    ckpt = tmp_path / "frontier.txt"
    ckpt.write_text('{"k": 3, "m": 19}\n{"S": [0, 40], "T": []}\n')
    with pytest.raises(ParameterError, match="outside"):
        search_antagonistic(3, 19, checkpoint=ckpt)


@pytest.mark.parametrize(
    "k,m,line",
    [
        (2, 20, '{"S": [0, 10], "T": []}'),  # within distance m/2
        (3, 31, '{"S": [0, 1, 2], "T": []}'),  # within distance 1 twice
        (2, 20, '{"S": [3, 0], "T": []}'),  # unsorted, and min(S) != 0
        (2, 9, '{"S": [0, 1], "T": [2, 3]}'),  # cross distance 1 twice
        (2, 9, '{"S": [0, 1], "T": [3, 5, 7]}'),  # more than k elements of T
        (2, 9, '{"S": [0], "T": [4]}'),  # T begun before S is full
        (2, 9, '{"S": [0]}'),  # no T
        (2, 9, "[0, 1]"),  # not an object
        (2, 9, "S=0,1"),  # not JSON
    ],
)
def test_search_checkpoint_refuses_nodes_outside_the_tree(tmp_path, k, m, line):
    ckpt = tmp_path / "frontier.txt"
    saved = json.dumps({"k": k, "m": m}) + "\n" + json.dumps({"S": [0], "T": []}) + "\n"
    ckpt.write_text(saved + line + "\n")
    before = ckpt.read_text()
    with pytest.raises(ParameterError, match="outside"):
        search_antagonistic(k, m, checkpoint=ckpt)
    assert ckpt.read_text() == before
    assert not list(tmp_path.glob("*.tmp"))
    ckpt.write_text(saved)  # the root alone resumes into the full tree
    assert _tree(search_antagonistic(k, m, checkpoint=ckpt)) == _tree(search_antagonistic(k, m))


def test_every_small_search_find_yields_valid_orbit_code():
    # end-to-end distance guarantee over every find at desk scale
    for k in (2, 3):
        for m in range(2 * k, 26):
            result = search_antagonistic(k, m)
            assert result.exhausted
            for pair in result.pairs:
                code = orbit_code(pair)
                assert verify_code(code) >= 2 * k - 1


def test_multi_orbit_matches_single_orbit():
    single = orbit_code(PAIR_K2)
    multi = multi_orbit_code(9, [((1, 8), (2, 3))], d=3)
    assert multi.words == single.words
    assert multi.verified_min_distance == 3


def test_multi_orbit_17_point_code():
    code = multi_orbit_code(17, [((0, 7), (2, 6)), ((0, 11), (7, 8))], d=3)
    assert len(code) == 34
    assert code.verified_min_distance == 3


def test_multi_orbit_collision_detected():
    gen = ((0, 7), (2, 6))
    shifted = ((3, 10), (5, 9))  # same orbit, shifted by 3
    with pytest.raises(ParameterError, match="orbit"):
        multi_orbit_code(17, [gen, shifted], d=3)


def test_multi_orbit_edge_cases():
    with pytest.raises(ParameterError, match="does not match code parameters"):
        multi_orbit_code(17, [((0,), (2,), (5,))], d=1)  # three parts: not a pair code
    short = multi_orbit_code(8, [((0, 4), (2, 6))], d=1)  # translates by 2 repeat the word
    assert short.words == {canonicalize([(0, 4), (2, 6)], 8), canonicalize([(1, 5), (3, 7)], 8)}
    assert len(short) == 2 and short.verified_min_distance == 4
    gens = [((0, 7), (2, 6)), ((0, 11), (7, 8)), ((3, 10), (5, 9))]
    with pytest.raises(ParameterError, match=r"^generator 2 shares orbit word \(\(0, 4\), \(5, 15\)\) with an earlier"):
        multi_orbit_code(17, gens, d=3)


def test_multi_orbit_accepts_stuple_generators():
    gen = canonicalize([(0, 7), (2, 6)], 17)
    code = multi_orbit_code(17, [gen], d=3)
    assert len(code) == 17


def _full_orbit_canonical_form(g):
    """Oracle: the least of all 4m rotated, reflected and swapped images."""
    m = g.m
    images = []
    for sign in (1, -1):
        s0 = [sign * x % m for x in g.s_set]
        t0 = [sign * x % m for x in g.t_set]
        for first, second in ((s0, t0), (t0, s0)):
            for shift in range(m):
                images.append(
                    (
                        tuple(sorted((x + shift) % m for x in first)),
                        tuple(sorted((x + shift) % m for x in second)),
                    )
                )
    return min(images)


def _random_pair(rng, m, k):
    elements = rng.sample(range(m), 2 * k)
    return CyclicGeneratorPair(m, elements[:k], elements[k:])


def test_canonical_form_matches_full_orbit_oracle():
    rng = random.Random(23)
    for m in range(3, 61):
        for _ in range(12):
            k = rng.randint(1, min(6, m // 2))
            pair = _random_pair(rng, m, k)
            canon = canonical_generator_form(pair)
            assert canon == _full_orbit_canonical_form(pair), (m, pair)
            # an image under a random symmetry is equivalent; an unrelated pair
            # is equivalent exactly when the oracle forms agree
            sign, shift = rng.choice((1, -1)), rng.randrange(m)
            s_img = [(sign * x + shift) % m for x in pair.s_set]
            t_img = [(sign * x + shift) % m for x in pair.t_set]
            if rng.random() < 0.5:
                s_img, t_img = t_img, s_img
            image = CyclicGeneratorPair(m, s_img, t_img)
            assert generators_equivalent(pair, image)
            other = _random_pair(rng, m, k)
            assert generators_equivalent(pair, other) == (
                _full_orbit_canonical_form(pair) == _full_orbit_canonical_form(other)
            )


def _rebuilt_extensions(state, k, m):
    """Oracle: children of a partial pair, re-deriving the used distances each time."""
    s, t = state
    half = m // 2 if m % 2 == 0 else -1
    within = set()
    for group in (s, t):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                within.add(circular_distance(a, b, m))
    if len(s) < k:
        children = []
        start = s[-1] + 1 if s else 0
        for e in range(start, m):
            new = [circular_distance(a, e, m) for a in s]
            if len(set(new)) != len(new) or within.intersection(new):
                continue
            if half > 0 and half in new:
                continue
            children.append(((*s, e), t))
        return children
    cross = set()
    for a in s:
        for b in t:
            cross.add(circular_distance(a, b, m))
    children = []
    start = t[-1] + 1 if t else 1
    used = set(s)
    for e in range(start, m):
        if e in used:
            continue
        new_within = [circular_distance(a, e, m) for a in t]
        if len(set(new_within)) != len(new_within) or within.intersection(new_within):
            continue
        if half > 0 and half in new_within:
            continue
        new_cross = [circular_distance(a, e, m) for a in s]
        if len(set(new_cross)) != len(new_cross) or cross.intersection(new_cross):
            continue
        if half > 0 and half in new_cross:
            continue
        children.append((s, (*t, e)))
    return children


def _rebuilt_search(k, m, node_budget=None):
    """Oracle: the depth-first antagonistic tree over _rebuilt_extensions."""
    stack = [((0,), ())]
    found = set()
    nodes = 0
    while stack and (node_budget is None or nodes < node_budget):
        s, t = stack.pop()
        nodes += 1
        if len(t) == k:
            found.add(_full_orbit_canonical_form(CyclicGeneratorPair(m, s, t)))
            continue
        stack.extend(reversed(_rebuilt_extensions((s, t), k, m)))
    return nodes, sorted(found), list(reversed(stack))


def _tree(result):
    return result.nodes, [(p.s_set, p.t_set) for p in result.pairs], result.frontier


@pytest.mark.parametrize("k", [1, 2, 3])
def test_search_tree_matches_rebuilding_oracle(k):
    for m in range(2 * k, 26):
        for budget in (None, 1, 400):
            assert _tree(search_antagonistic(k, m, node_budget=budget)) == _rebuilt_search(
                k, m, budget
            ), (k, m, budget)


def test_search_frontier_matches_rebuilding_oracle_4_33():
    assert _tree(search_antagonistic(4, 33, node_budget=2000)) == _rebuilt_search(4, 33, 2000)


def test_search_3_19_tree_size_pinned():
    result = search_antagonistic(3, 19)
    assert (result.nodes, len(result.pairs)) == (5167, 12)


@pytest.mark.parametrize(
    "k, m, budget, nodes, pairs, exhausted, frontier, digest",
    [
        (3, 19, None, 5167, 12, True, 0, "b533011210eb"),
        (3, 23, None, 19823, 352, True, 0, "2d17303e348a"),
        (3, 28, 5000, 5000, 966, False, 55, "62567bdfa7b9"),
        (4, 33, 8000, 8000, 0, False, 83, "4f53cda18c2b"),
    ],
)
def test_search_outputs_pinned(k, m, budget, nodes, pairs, exhausted, frontier, digest):
    result = search_antagonistic(k, m, node_budget=budget)
    assert (result.nodes, len(result.pairs), result.exhausted, len(result.frontier)) == (
        nodes, pairs, exhausted, frontier
    )
    found = json.dumps([(p.s_set, p.t_set) for p in result.pairs])
    assert hashlib.sha256(found.encode()).hexdigest()[:12] == digest


@pytest.mark.parametrize("k, m, budget", [(3, 19, None), (4, 33, 8000), (4, 35, 20000)])
def test_every_search_leaf_gets_its_full_orbit_form(monkeypatch, k, m, budget):
    # (4, 33) has no pair, so its 8000 nodes reach no leaf; (4, 35) gives k = 4 leaves
    leaves = []
    canonical_form = cyclic._canonical_form

    def recording(m, s, t):
        form = canonical_form(m, s, t)
        leaves.append((CyclicGeneratorPair(m, s, t), form))
        return form

    monkeypatch.setattr(cyclic, "_canonical_form", recording)
    result = search_antagonistic(k, m, node_budget=budget)
    assert len(leaves) >= len(result.pairs)
    for pair, form in leaves:
        assert form == _full_orbit_canonical_form(pair), pair


def _rebuilt_masks(s, t, k, m):
    """Oracle: a node's within, cross and barred masks, re-derived from (S, T).

    within and cross hold the residues d and -d of each used distance d (and
    m/2 at even m), doubled to 2m bits; barred holds each residue e with
    2e = a + b for a pair a, b of S or of T, and S itself once S is full.
    """
    def doubled(dists):
        mask = 0
        for d in dists:
            mask |= 1 << d % m | 1 << -d % m
        return mask | mask << m

    seed = [m // 2] if m % 2 == 0 else []
    pairs = [(a, b) for group in (s, t) for i, a in enumerate(group) for b in group[i + 1 :]]
    within = doubled(seed + [circular_distance(a, b, m) for a, b in pairs])
    cross = doubled(seed + [circular_distance(a, b, m) for a in s for b in t])
    barred = 0
    for e in range(m):
        if any(2 * e % m == (a + b) % m for a, b in pairs) or (len(s) == k and e in s):
            barred |= 1 << e
    return within, cross, barred


@pytest.mark.parametrize("k", [4, 5])
def test_random_walks_match_rebuilding_oracle(k):
    # seeded walks from the root to a leaf or a dead end: every visited node's
    # children equal the oracle's, and _replay of its (S, T) returns the node
    rng = random.Random(29 + k)
    for m in range(2 * k, 62):
        tables = cyclic._residue_tables(m)
        for _ in range(6):
            node = cyclic._replay((0,), (), k, m, tables)
            while True:
                s, t = node[:2]
                assert node[2:] == _rebuilt_masks(s, t, k, m), (k, m, s, t)
                assert cyclic._replay(s, t, k, m, tables) == node, (k, m, s, t)
                if len(t) == k:
                    break
                children = cyclic._extensions(node, k, m, tables)
                assert [c[:2] for c in children] == _rebuilt_extensions((s, t), k, m), (k, m, s, t)
                if not children:
                    break
                node = rng.choice(children)


@pytest.mark.parametrize("k, m", [(2.5, 19), ("3", 19), (3, 19.0), (3, "19")])
def test_search_parameters_must_be_integers(monkeypatch, k, m):
    # a float once walked the k = 2 tree and claimed a false exhaustion
    monkeypatch.setattr(cyclic, "_residue_tables", lambda m: pytest.fail("a node ran"))
    with pytest.raises(TypeError):
        search_antagonistic(k, m)


def test_search_reads_a_bool_as_an_integer():
    assert _tree(search_antagonistic(True, 3)) == _tree(search_antagonistic(1, 3))
    with pytest.raises(ParameterError, match="need k >= 1"):
        search_antagonistic(False, 3)
    with pytest.raises(ParameterError, match="exceeds m = 1"):
        search_antagonistic(1, True)
