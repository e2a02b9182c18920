"""Checks computed apart from ekcodes: brute force, linear algebra and closed forms.

Nothing here imports ekcodes except `regen_optima`, which asks the
program's unpruned `exhaustive_max_code` for the few exact optima that lie
below the bound floor (the only stored table; see exact_optima.json).

Words are plain data: a set-world word is a sequence of parts (each a
sequence of ints), a q-ary word is a tuple of symbols.

    python3 bench/oracle.py regen-optima     # rewrite bench/exact_optima.json
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np

OPTIMA_FILE = Path(__file__).with_name("exact_optima.json")
# (n, k, d) whose exact optimum is below the bound floor, so only an
# exhaustive search can supply it.
OPTIMA_PARAMS = ((5, 2, 2), (6, 2, 3), (7, 2, 3), (8, 2, 3))
ALL_PAIRS_LIMIT = 900  # above this many words, composed codes are checked by blocks and sampling
SCAN_LIMIT = 20_000  # greedy universes up to this many words are scanned for maximality
MAXIMAL_PROBES = 5_000  # uniform words probed for maximality in larger universes
ROW_BLOCK = 256  # rows per block of a distance computation


# ---------------------------------------------------------------- distances

def word_distance(x, y) -> int:
    """Elements to move between two s-part words, minimised over part matchings."""
    xs = [set(p) for p in x]
    ys = [set(p) for p in y]
    return min(
        sum(len(a - ys[j]) for a, j in zip(xs, perm)) for perm in permutations(range(len(ys)))
    )


def hamming(u, v) -> int:
    return sum(a != b for a, b in zip(u, v))


def qary_pair_distance(x, y) -> int:
    (u1, v1), (u2, v2) = x, y
    return min(hamming(u1, u2) + hamming(v1, v2), hamming(u1, v2) + hamming(v1, u2))


def distance_matrix(xs, ys) -> np.ndarray:
    """Exact set-world distances between two word lists.

    Part overlaps are counted by comparing elements pairwise, then the
    best part matching is taken over all permutations.
    """
    x, y = np.asarray(xs), np.asarray(ys)  # (words, parts, k)
    s, k = x.shape[1], x.shape[2]
    overlap = [
        [sum((x[:, i, a, None] == y[None, :, j, b]).astype(np.int16) for a in range(k) for b in range(k)) for j in range(s)]
        for i in range(s)
    ]
    best = None
    for perm in permutations(range(s)):
        kept = sum(overlap[i][perm[i]] for i in range(s))
        best = kept if best is None else np.maximum(best, kept)
    return s * k - best


def hamming_matrix(xs, ys) -> np.ndarray:
    a = np.asarray(xs, dtype=np.int16)
    b = np.asarray(ys, dtype=np.int16)
    return (a[:, None, :] != b[None, :, :]).sum(axis=2)


def _distance_blocks(xs, ys, q: int):
    """(offset, distances of xs[offset:offset+ROW_BLOCK] to ys), block by block,
    so that the checks' arrays stay small next to the program's own memory."""
    for lo in range(0, len(xs), ROW_BLOCK):
        block = xs[lo : lo + ROW_BLOCK]
        yield lo, hamming_matrix(block, ys) if q else distance_matrix(block, ys)


def min_distance(words, q: int = 0) -> float:
    """Exact minimum over all pairs (inf below two words)."""
    best = math.inf
    for lo, dist in _distance_blocks(words, words, q):
        dist = dist.astype(np.float64)
        rows = np.arange(dist.shape[0])
        dist[rows, lo + rows] = math.inf
        best = min(best, float(dist.min()))
    return best


# ---------------------------------------------------------------- universes

def pair_universe(n: int, k: int, s: int = 2) -> list[tuple[tuple[int, ...], ...]]:
    """Every unordered s-tuple of disjoint k-subsets of [0, n), parts sorted by minimum."""
    out = []

    def extend(chosen, free):
        if len(chosen) == s:
            out.append(tuple(chosen))
            return
        for i, lead in enumerate(free):
            rest = free[i + 1 :]
            for others in combinations(rest, k - 1):
                part = (lead, *others)
                left = [e for e in rest if e not in others]
                extend(chosen + [part], left)

    extend([], list(range(n)))
    return out


def qary_universe(n: int, k: int, q: int) -> list[tuple[int, ...]]:
    out = []
    for support in combinations(range(n), k):
        for values in product(range(1, q), repeat=k):
            word = [0] * n
            for pos, val in zip(support, values):
                word[pos] = val
            out.append(tuple(word))
    return out


def universe_size(n: int, k: int, s: int = 2, q: int = 0) -> int:
    if q:
        return math.comb(n, k) * (q - 1) ** k
    return math.prod(math.comb(n - i * k, k) for i in range(s)) // math.factorial(s)


def random_word(n: int, k: int, s: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A uniform word of the set-world universe, parts sorted by minimum."""
    elems = rng.sample(range(n), s * k)
    return tuple(sorted(tuple(sorted(elems[i * k : (i + 1) * k])) for i in range(s)))


def greedy_output_ok(words, n: int, k: int, d: int, rng: random.Random, s: int = 2, q: int = 0) -> bool:
    """Distinct words at pairwise distance >= d, and maximal: every other word conflicts.

    Universes up to SCAN_LIMIT words are scanned whole; larger ones are
    probed with MAXIMAL_PROBES uniform words.
    """
    if len(set(words)) != len(words) or not words:
        return False
    if min_distance(words, q) < d:
        return False
    chosen = set(words)
    if universe_size(n, k, s, q) <= SCAN_LIMIT:
        universe = qary_universe(n, k, q) if q else pair_universe(n, k, s)
        if not chosen <= set(universe):
            return False
    else:
        universe = [random_word(n, k, s, rng) for _ in range(MAXIMAL_PROBES)]
    others = [w for w in universe if w not in chosen]
    return all(bool((dist < d).any(axis=1).all()) for _, dist in _distance_blocks(others, words, q))


def composed_ok(words, blocks, k: int, d: int, base_size: int, n: int, rng: random.Random) -> tuple[bool, int]:
    """Check a code planted on a strength-2 packing; returns (valid, exact minimum or -1).

    Small codes are measured on all pairs.  Above ALL_PAIRS_LIMIT words:
    every word must sit inside one block and every block must carry
    base_size words; within-block pairs are measured exactly; blocks must
    meet in at most 2k-d points, which keeps every cross-block pair at
    distance >= d; and a sample of cross-block pairs is measured directly.
    The exact minimum is then the within-block one when that is <= d.
    """
    if len(set(words)) != len(words):
        return False, 0
    if len(words) <= ALL_PAIRS_LIMIT:
        return True, int(min_distance(words))
    block_of = {pair: bi for bi, block in enumerate(blocks) for pair in combinations(block, 2)}
    groups: dict[int, list] = {}
    for word in words:
        pts = sorted(e for part in word for e in part)
        bi = block_of.get((pts[0], pts[1]))
        if bi is None or not set(blocks[bi]).issuperset(pts):
            return False, 0
        groups.setdefault(bi, []).append(word)
    if len(groups) != len(blocks) or any(len(g) != base_size for g in groups.values()):
        return False, 0
    points = np.zeros((len(blocks), n))
    for bi, block in enumerate(blocks):
        points[bi, list(block)] = 1.0
    meets = points @ points.T
    np.fill_diagonal(meets, 0.0)
    if meets.max() > 2 * k - d:
        return False, 0
    within = min(min_distance(group) for group in groups.values())
    keys = list(groups)
    for _ in range(500):
        ba, bb = rng.sample(keys, 2)
        if word_distance(rng.choice(groups[ba]), rng.choice(groups[bb])) < d:
            return False, 0
    return True, int(within) if within <= d else -1


# ---------------------------------------------------------------- bounds

def pair_bound(n: int, k: int, d: int) -> Fraction:
    """Witness-counting bound at the balanced split: C(n,u)C(n-u,v) / (2 C(k,u) C(k,v))."""
    u, v = k - d // 2, k - (d - 1) // 2  # k - ceil((d-1)/2), k - floor((d-1)/2)
    return split_bound(n, k, u, v)


def split_bound(n: int, k: int, u: int, v: int) -> Fraction:
    return Fraction(math.comb(n, u) * math.comb(n - u, v), 2 * math.comb(k, u) * math.comb(k, v))


def packing_bound(v: int, k: int, t: int) -> Fraction:
    """Counting bound on packings: each block covers C(k, t) of the C(v, t) t-sets."""
    return Fraction(math.comb(v, t), math.comb(k, t))


def pair_limit(k: int, d: int) -> Fraction:
    """lim pair_bound / n^(2k-d+1): each binomial C(n, j) contributes n^j / j!."""
    u, v = k - d // 2, k - (d - 1) // 2
    return Fraction(1, 2 * math.factorial(u) * math.factorial(v) * math.comb(k, u) * math.comb(k, v))


def steiner_divisible(v: int, k: int, t: int) -> bool:
    return all(math.comb(v - i, t - i) % math.comb(k - i, t - i) == 0 for i in range(t))


def known_ok(n: int, k: int, d: int, value: Fraction | None) -> bool:
    """A reported exact value must respect the bound and match the counting argument behind it."""
    if value is None:
        return d not in (1, 2 * k)
    if value > pair_bound(n, k, d):
        return False
    if d == 1:
        return value == Fraction(math.comb(n, k) * math.comb(n - k, k), 2)
    if d == 2 * k:
        return value == n // (2 * k)
    if d == 2:
        # each block of an S(n, 2k, 2k-1) carries all C(2k, k)/2 splits of itself
        blocks = Fraction(math.comb(n, 2 * k - 1), 2 * k)
        return steiner_divisible(n, 2 * k, 2 * k - 1) and value == blocks * Fraction(math.comb(2 * k, k), 2)
    return value == pair_bound(n, k, d)


# ---------------------------------------------------------------- cyclic structures

def antagonistic(m: int, s_set, t_set) -> bool:
    """Within-set directed differences distinct, and cross differences +-(s-t) distinct."""
    within = [(a - b) % m for group in (s_set, t_set) for a in group for b in group if a != b]
    cross = [x for a in s_set for b in t_set for x in ((a - b) % m, (b - a) % m)]
    return len(set(within)) == len(within) and len(set(cross)) == len(cross)


def canonical_pair(m: int, s_set, t_set) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least (S, T) under rotation, reflection and swap."""
    forms = []
    for sign in (1, -1):
        for first, second in ((s_set, t_set), (t_set, s_set)):
            for shift in range(m):
                forms.append(
                    (
                        tuple(sorted((sign * x + shift) % m for x in first)),
                        tuple(sorted((sign * x + shift) % m for x in second)),
                    )
                )
    return min(forms)


def antagonistic_pairs(k: int, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every antagonistic pair mod m in canonical form, by brute force over S containing 0."""
    found = set()
    for rest in combinations(range(1, m), k - 1):
        s_set = (0, *rest)
        free = [x for x in range(m) if x not in s_set]
        for t_set in combinations(free, k):
            if antagonistic(m, s_set, t_set):
                found.add(canonical_pair(m, s_set, t_set))
    return sorted(found)


def perfect_difference_set(base, q: int) -> bool:
    m = q * q + q + 1
    if len(base) != q + 1:
        return False
    diffs = [(a - b) % m for a in base for b in base if a != b]
    return sorted(diffs) == list(range(1, m))


def exact_optimum(n: int, k: int, d: int, table: dict) -> int:
    """The optimum from the exhaustive table, else the bound floor."""
    return table.get(f"{n},{k},{d}", math.floor(pair_bound(n, k, d)))


def load_optima() -> dict:
    return json.loads(OPTIMA_FILE.read_text(encoding="utf-8"))


def regen_optima() -> None:
    """Rewrite the optima table from the program's unpruned exhaustive search."""
    from ekcodes.search import exhaustive_max_code

    table = {f"{n},{k},{d}": exhaustive_max_code(n, k, d) for n, k, d in OPTIMA_PARAMS}
    OPTIMA_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(table))


if __name__ == "__main__":
    if sys.argv[1:] != ["regen-optima"]:
        sys.exit("usage: python3 bench/oracle.py regen-optima")
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    regen_optima()
