"""Antagonistic residue-set pairs mod m and the orbit codes they generate.

A pair of disjoint k-subsets S, T of Z_m is antagonistic when (i) the
k(k-1) circular distances inside S and inside T are all distinct as one
combined list, none equal to m/2, (ii) the k^2 cross distances are all
distinct, and (iii) no cross distance equals m/2.  Equivalently, all
within-set and all cross directed differences are distinct.  Translating
such a pair around the circle yields m words with pairwise transportation
distance >= 2k-1.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Code, ParameterError, PartSizeError, STuple, _canonical_words, canonicalize


def circular_distance(a: int, b: int, m: int) -> int:
    """Shorter way around the circle Z_m between a and b; in [0, m/2]."""
    if m < 1:
        raise ParameterError(f"modulus must be >= 1, got m={m}")
    r = (b - a) % m
    return min(r, m - r)


@dataclass(frozen=True)
class CyclicGeneratorPair:
    """Disjoint k-subsets S, T of residues mod m, reduced and sorted."""

    m: int
    s_set: tuple[int, ...]
    t_set: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ParameterError(f"modulus must be >= 1, got m={self.m}")
        s = tuple(sorted({int(x) % self.m for x in self.s_set}))
        t = tuple(sorted({int(x) % self.m for x in self.t_set}))
        if len(s) != len(self.s_set) or len(t) != len(self.t_set):
            raise ParameterError("residues collide after reduction mod m")
        if len(s) != len(t):
            raise ParameterError(f"|S| = {len(s)} and |T| = {len(t)} must be equal")
        if not s:
            raise ParameterError("S and T must be nonempty")
        if set(s) & set(t):
            raise ParameterError(f"S and T must be disjoint, share {sorted(set(s) & set(t))}")
        object.__setattr__(self, "s_set", s)
        object.__setattr__(self, "t_set", t)

    @property
    def k(self) -> int:
        return len(self.s_set)


@dataclass(frozen=True)
class AntagonismReport:
    """Verdict plus, on failure, the first violated condition and its collision."""

    ok: bool
    condition: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_antagonistic(g: CyclicGeneratorPair) -> AntagonismReport:
    """Check conditions (i)-(iii); cross/within collisions are allowed.

    Condition (i) counts each within-set distance once per unordered pair
    but also rejects a within-set distance of exactly m/2: such a pair's
    two directed differences coincide, which makes the set invariant
    under the half-turn shift and breaks the orbit distance guarantee.
    """
    m = g.m
    within: dict[int, tuple[int, int]] = {}
    for group in (g.s_set, g.t_set):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                dist = circular_distance(a, b, m)
                if dist in within:
                    return AntagonismReport(
                        False, "i",
                        f"within-set distance {dist} from {within[dist]} and {(a, b)}",
                    )
                if 2 * dist == m:
                    return AntagonismReport(
                        False, "i", f"within-set distance m/2 from {(a, b)}"
                    )
                within[dist] = (a, b)
    cross: dict[int, tuple[int, int]] = {}
    for a in g.s_set:
        for b in g.t_set:
            dist = circular_distance(a, b, m)
            if dist in cross:
                return AntagonismReport(
                    False, "ii",
                    f"cross distance {dist} from {cross[dist]} and {(a, b)}",
                )
            cross[dist] = (a, b)
    if m % 2 == 0:
        for dist, pair in cross.items():
            if 2 * dist == m:
                return AntagonismReport(False, "iii", f"cross distance m/2 from {pair}")
    return AntagonismReport(True)


def _canonical_form(
    m: int, s_set: tuple[int, ...], t_set: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """canonical_generator_form on a raw (m, S, T), with no validation.

    With each set sorted once per sign, the image of x -> x - pivot (mod m)
    is a window of the set and its lift by m.
    """
    best: tuple[list[int], list[int]] | None = None
    for sign in (1, -1):
        s0 = sorted(sign * x % m for x in s_set)
        t0 = sorted(sign * x % m for x in t_set)
        for first, second in ((s0, t0), (t0, s0)):
            ring = first + [x + m for x in first]
            ring2 = second + [x + m for x in second]
            for i, pivot in enumerate(first):
                head = [x - pivot for x in ring[i : i + len(first)]]
                if best is not None and head > best[0]:
                    continue
                j = bisect_left(second, pivot)
                cand = (head, [x - pivot for x in ring2[j : j + len(second)]])
                if best is None or cand < best:
                    best = cand
    assert best is not None
    return tuple(best[0]), tuple(best[1])


def canonical_generator_form(g: CyclicGeneratorPair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least representative of g's orbit under rotation, reflection, and swap.

    Some rotation puts 0 in the first set, and a first set holding 0 sorts
    below any without it, so the least representative has 0 as the smallest
    element of its first set.  Only the k rotations sending an element of
    the first set to 0 are tried per (sign, order): 4k candidates, not 4m.
    """
    return _canonical_form(g.m, g.s_set, g.t_set)


def generators_equivalent(g1: CyclicGeneratorPair, g2: CyclicGeneratorPair) -> bool:
    """True iff g1 and g2 differ only by rotation, reflection, or swap."""
    if g1.m != g2.m:
        return False
    return canonical_generator_form(g1) == canonical_generator_form(g2)


@dataclass
class AntagonisticSearch:
    """Outcome of a backtracking run: distinct pairs (canonical, sorted)."""

    pairs: list[CyclicGeneratorPair]
    exhausted: bool
    nodes: int = 0
    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)


# A search node: the partial pair (S, T) and bitmasks of the within-set and
# cross distances it uses.
_Node = tuple[tuple[int, ...], tuple[int, ...], int, int]


def _distance_bits(m: int) -> list[int]:
    """bits[r] = 1 << circular_distance(0, r, m), for r in [0, m).

    bits[e - a] is then the distance bit of a and e in [0, m): a negative
    index wraps to (e - a) mod m.
    """
    return [1 << min(r, m - r) for r in range(m)]


def _node(s: tuple[int, ...], t: tuple[int, ...], m: int, bits: list[int]) -> _Node:
    """A partial pair with its used-distance masks, derived from scratch.

    Both masks are seeded with the m/2 bit when m is even, so that distance
    is never admitted as a new within or cross distance.
    """
    seed = bits[m // 2] if m % 2 == 0 else 0
    within = cross = seed
    for group in (s, t):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                within |= bits[b - a]
    for a in s:
        for b in t:
            cross |= bits[b - a]
    return s, t, within, cross


def _extensions(node: _Node, k: int, m: int, bits: list[int]) -> list[_Node]:
    """Valid children of a partial assignment, in increasing element order.

    The node carries its used within and cross distances as bitmasks, and
    `bits` (see _distance_bits) gives each new distance's bit by one list
    lookup.  A child is kept only if its new within/cross distances are
    distinct and miss the parent's masks, which holds every collision the
    antagonism conditions forbid; it carries the masks with its own
    distances added.
    """
    s, t, within, cross = node
    children: list[_Node] = []
    if len(s) < k:
        for e in range(s[-1] + 1 if s else 0, m):
            used = within
            for a in s:
                bit = bits[e - a]
                if used & bit:
                    break
                used |= bit
            else:
                children.append(((*s, e), t, used, cross))
        return children
    for e in range(t[-1] + 1 if t else 1, m):
        if e in s:
            continue
        used = within
        for a in t:
            bit = bits[e - a]
            if used & bit:
                break
            used |= bit
        else:
            crossed = cross
            for a in s:
                bit = bits[e - a]
                if crossed & bit:
                    break
                crossed |= bit
            else:
                children.append((s, (*t, e), used, crossed))
    return children


def search_antagonistic(
    k: int,
    m: int,
    limit: int | None = None,
    seed: int | None = None,
    *,
    node_budget: int | None = None,
    wall_budget_s: float | None = None,
    checkpoint: str | Path | None = None,
) -> AntagonisticSearch:
    """Backtracking search for antagonistic pairs, up to symmetry.

    Rotation is broken by fixing min(S) = 0; reflection and swap are
    removed by emitting only canonical representatives.  The tree is
    traversed depth first with element candidates in increasing order, so
    runs are deterministic; `seed` is accepted for interface uniformity
    but plays no role.  The exhaustion flag is set only when the whole
    symmetry-reduced tree was traversed (no limit or budget stop).

    When `checkpoint` names an existing nonempty file, the search resumes
    from the partial assignments listed there: a {"k", "m"} header line,
    then one JSON object per frontier node.  A file written for other
    parameters, or without a header, is refused.  On a budget stop the
    unexplored frontier is written back to it through a temporary file
    and an atomic rename; an exhausted search leaves it empty.
    """
    del seed  # traversal is deterministic by design
    if k < 1:
        raise ParameterError(f"need k >= 1, got k={k}")
    if 2 * k > m:
        raise ParameterError(f"infeasible: 2k = {2 * k} exceeds m = {m}")

    bits = _distance_bits(m)
    stack: list[_Node]
    ckpt = Path(checkpoint) if checkpoint is not None else None
    saved = ckpt.read_text(encoding="utf-8") if ckpt is not None and ckpt.exists() else ""
    lines = [line for line in saved.splitlines() if line.strip()]
    if lines:
        header = json.loads(lines[0])
        if not isinstance(header, dict) or set(header) != {"k", "m"}:
            raise ParameterError(f"checkpoint {ckpt} has no (k, m) header; refusing to resume")
        if (header["k"], header["m"]) != (k, m):
            raise ParameterError(
                f"checkpoint {ckpt} holds a (k, m) = ({header['k']}, {header['m']}) frontier, "
                f"not ({k}, {m})"
            )
        stack = []
        for line in lines[1:]:
            obj = json.loads(line)
            s, t = tuple(obj["S"]), tuple(obj["T"])
            if not all(0 <= x < m for x in s + t):
                raise ParameterError(f"checkpoint {ckpt} lists residues outside [0, {m})")
            stack.append(_node(s, t, m, bits))
        stack.reverse()  # file lists frontier top-first
    else:
        stack = [_node((0,), (), m, bits)]

    found: dict[tuple[tuple[int, ...], tuple[int, ...]], CyclicGeneratorPair] = {}
    nodes = 0
    stopped = False
    t0 = time.monotonic()
    while stack:
        if node_budget is not None and nodes >= node_budget:
            stopped = True
            break
        if wall_budget_s is not None and time.monotonic() - t0 > wall_budget_s:
            stopped = True
            break
        node = stack.pop()
        nodes += 1
        s, t = node[0], node[1]
        if len(t) == k:
            canon = _canonical_form(m, s, t)
            if canon not in found:
                found[canon] = CyclicGeneratorPair(m, canon[0], canon[1])
                if limit is not None and len(found) >= limit:
                    stopped = True
                    break
            continue
        stack.extend(reversed(_extensions(node, k, m, bits)))

    frontier = [(s, t) for s, t, _, _ in reversed(stack)]
    if ckpt is not None:
        lines = [json.dumps({"S": list(s), "T": list(t)}) for s, t in frontier]
        if lines:
            lines.insert(0, json.dumps({"k": k, "m": m}))
        tmp = ckpt.with_name(ckpt.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as out:
            out.write("\n".join(lines) + ("\n" if lines else ""))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, ckpt)
    pairs = [found[key] for key in sorted(found)]
    return AntagonisticSearch(pairs, exhausted=not stopped, nodes=nodes, frontier=frontier)


def _orbit_rows(parts: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """The m translates of one word's parts, as canonical rows (m, s, k).

    Each translated part is sorted, then the parts of each row are ordered
    by their smallest element; disjoint parts stay disjoint mod m.
    """
    base = np.array(parts, dtype=np.intp)
    rows = np.sort((base + np.arange(m, dtype=np.intp)[:, None, None]) % m, axis=2)
    order = np.argsort(rows[:, :, 0], axis=1)
    return np.take_along_axis(rows, order[:, :, None], axis=1)


def orbit_code(g: CyclicGeneratorPair) -> Code:
    """The m translates {S+u, T+u} as a code with claimed distance 2k-1.

    Refuses non-antagonistic input; antagonism guarantees the m words are
    distinct and pairwise at distance >= 2k-1.
    """
    report = is_antagonistic(g)
    if not report:
        raise ParameterError(
            f"generator pair is not antagonistic (condition {report.condition}: {report.detail})"
        )
    m, k = g.m, g.k
    words = frozenset(_canonical_words(m, _orbit_rows((g.s_set, g.t_set), m)))
    if len(words) != m:
        raise ParameterError("orbit collapsed; generator pair is degenerate")
    return Code(n=m, k=k, s=2, q=0, d=2 * k - 1, words=words)


def multi_orbit_code(m: int, generators: Sequence[STuple | Iterable[Iterable[int]]], d: int) -> Code:
    """Union of the full cyclic orbits of several generator words.

    No antagonism is assumed: the minimum distance is established by full
    verification and stored on the returned code.  Two generators landing
    in one orbit is an error naming the collision.
    """
    from .search import verify_code

    if not generators:
        raise ParameterError("need at least one generator")
    gens: list[STuple] = []
    for gen in generators:
        if isinstance(gen, STuple):
            if gen.n != m:
                raise ParameterError(f"generator {gen._key()} not over [0, {m})")
            gens.append(gen)
        else:
            gens.append(canonicalize(gen, m))
    k = gens[0].k
    orbits: list[frozenset[STuple]] = []
    for gen in gens:
        if gen.k != k:
            raise PartSizeError(f"generator {gen._key()} has parts of size {gen.k}, expected {k}")
        orbits.append(frozenset(_canonical_words(m, _orbit_rows(gen._key(), m))))
    words: set[STuple] = set()
    for i, orbit in enumerate(orbits):
        clash = words & orbit
        if clash:
            shared = sorted(clash)[0]
            raise ParameterError(
                f"generator {i} shares orbit word {shared._key()} with an earlier generator"
            )
        words |= orbit
    code = Code(n=m, k=k, s=2, q=0, d=d, words=frozenset(words))
    verify_code(code)
    return code
