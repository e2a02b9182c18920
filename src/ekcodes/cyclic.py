"""Antagonistic residue-set pairs mod m and the orbit codes they generate.

A pair of disjoint k-subsets S, T of Z_m is antagonistic when (i) the
k(k-1) circular distances inside S and inside T are all distinct as one
combined list, none equal to m/2, (ii) the k^2 cross distances are all
distinct, and (iii) no cross distance equals m/2.  Equivalently, all
within-set and all cross directed differences are distinct.  Translating
such a pair around the circle yields m words with pairwise transportation
distance >= 2k-1.

Every residue search (this one and designs.planar_difference_set) walks
the one tree of _extensions, and _replay builds each start node, so a
checkpoint node the tree never reaches is refused before any search.
A node keeps its used distances as Python-int bitsets over Z_m (the
residues d and -d of each distance d), so a few shifts screen every
candidate residue of the node at once, and masks are built only for the
children that pass; the tables this takes are built by each search call.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Code, ParameterError, PartSizeError, STuple, canonicalize


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
        m = operator.index(self.m)
        if m < 1:
            raise ParameterError(f"modulus must be >= 1, got m={m}")
        s = tuple(sorted({operator.index(x) % m for x in self.s_set}))
        t = tuple(sorted({operator.index(x) % m for x in self.t_set}))
        if len(s) != len(self.s_set) or len(t) != len(self.t_set):
            raise ParameterError("residues collide after reduction mod m")
        if len(s) != len(t):
            raise ParameterError(f"|S| = {len(s)} and |T| = {len(t)} must be equal")
        if not s:
            raise ParameterError("S and T must be nonempty")
        if set(s) & set(t):
            raise ParameterError(f"S and T must be disjoint, share {sorted(set(s) & set(t))}")
        object.__setattr__(self, "m", m)
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

    Each candidate image is x -> sign * (x - pivot) mod m, sorted; a pivot
    whose first set already sorts above the best one skips its second set.
    """
    best: tuple[list[int], list[int]] | None = None
    for sign in (1, -1):
        for first, second in ((s_set, t_set), (t_set, s_set)):
            for pivot in first:
                head = sorted(sign * (x - pivot) % m for x in first)
                if best is not None and head > best[0]:
                    continue
                cand = (head, sorted(sign * (x - pivot) % m for x in second))
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


# A search node: the partial pair (S, T), the residue masks `within` and
# `cross` of the distances it uses, and the residues `barred` as a next
# element (see _extensions).
_Node = tuple[tuple[int, ...], tuple[int, ...], int, int, int]
_Tables = tuple[list[int], list[int], list[int]]


def _residue_tables(m: int) -> _Tables:
    """The per-search tables (dbl, mid, above) of _extensions over Z_m.

    - dbl[r] has the residues r and -r in both halves of a 2m-bit mask: a
      distance's bits in the doubled form of within and cross.  A negative
      r wraps, so dbl[e - a] serves any a, e in [0, m).
    - mid[c] = {e in [0, m) : 2e = c (mod m)}, for c in [0, 2m): the
      residues e with dist(e, a) = dist(e, b) when a + b = c.
    - above[lo] = the residues [lo, m).

    They take O(m) ints and are built by each search call, not at import.
    """
    dbl = []
    for r in range(m):
        pair = 1 << r | 1 << (m - r) % m
        dbl.append(pair | pair << m)
    mid = [0] * m
    for e in range(m):
        mid[2 * e % m] |= 1 << e
    full = (1 << m) - 1
    return dbl, mid + mid, [full ^ ((1 << lo) - 1) for lo in range(m + 1)]


def _replay(s: tuple[int, ...], t: tuple[int, ...], k: int, m: int, tables: _Tables) -> _Node | None:
    """The tree node of the partial pair (S, T), or None if the tree never reaches it.

    The root is S = (0,), T = (), with both masks seeded with the residue
    m/2 when m is even, so that distance is never admitted as a new one
    (and with 0 barred when k = 1, as S is full).  Each later element must
    name a child under _extensions of the node before it.
    """
    seed = tables[0][m // 2] if m % 2 == 0 else 0
    if not s or s[0] != 0 or len(t) > k:
        return None
    node = ((0,), (), seed, seed, 1 if k == 1 else 0)
    for i in range(2, len(s) + len(t) + 1):
        target = (s[:i], ()) if i <= len(s) else (s, t[: i - len(s)])
        node = next((c for c in _extensions(node, k, m, tables) if c[:2] == target), None)
        if node is None:
            return None
    return node


def _extensions(node: _Node, k: int, m: int, tables: _Tables) -> list[_Node]:
    """Valid children of a partial assignment, in increasing element order.

    Masks live in the residue domain: for each used distance d, `within`
    and `cross` hold the residues d and -d, doubled to 2m bits (M | M << m,
    see _residue_tables), so bit e of M >> (m - a) says whether
    dist(a, e) is used, for every e in [0, m) at once.  `barred` holds the
    residues where two of a candidate's new distances would coincide:
    dist(e, a) = dist(e, b) iff 2e = a + b (mod m), so each pair of S, and
    of T, bars mid[a + b]; once S is full its members are barred too.

    One screen per node then rejects every candidate whose new within or
    cross distances repeat, or hit the parent's masks, which holds every
    collision the antagonism conditions forbid:
    - S phase: bad = barred | OR over a in S of within >> (m - a)
    - T phase: bad = barred | OR over a in T of within >> (m - a)
      | OR over a in S of cross >> (m - a)
    The candidates above[lo] & ~bad are read low bit first, and each child
    carries its parent's masks with its own distances and midpoints added.
    """
    s, t, within, cross, barred = node
    dbl, mid, above = tables
    children: list[_Node] = []
    if len(s) < k:
        bad = barred
        for a in s:
            bad |= within >> (m - a)
        free = above[s[-1] + 1] & ~bad
        full = len(s) + 1 == k
        members = sum(1 << a for a in s) if full else 0
        while free:
            low = free & -free
            free ^= low
            e = low.bit_length() - 1
            used, bars = within, barred
            for a in s:
                used |= dbl[e - a]
                bars |= mid[e + a]
            if full:
                bars |= members | low
            children.append(((*s, e), t, used, cross, bars))
        return children
    bad = barred
    for a in t:
        bad |= within >> (m - a)
    for a in s:
        bad |= cross >> (m - a)
    free = above[t[-1] + 1 if t else 1] & ~bad
    while free:
        low = free & -free
        free ^= low
        e = low.bit_length() - 1
        used, crossed, bars = within, cross, barred
        for a in t:
            used |= dbl[e - a]
            bars |= mid[e + a]
        for a in s:
            crossed |= dbl[e - a]
        children.append((s, (*t, e), used, crossed, bars))
    return children


def search_antagonistic(
    k: int,
    m: int,
    limit: int | None = None,
    *,
    node_budget: int | None = None,
    wall_budget_s: float | None = None,
    checkpoint: str | Path | None = None,
) -> AntagonisticSearch:
    """Backtracking search for antagonistic pairs, up to symmetry.

    Rotation is broken by fixing min(S) = 0; reflection and swap are
    removed by emitting only canonical representatives.  The tree is
    traversed depth first with element candidates in increasing order, so
    runs are deterministic and take no seed.  The exhaustion flag is set
    only when the whole symmetry-reduced tree was traversed (no limit or
    budget stop).  k, m, the limit and the node budget are read as
    integers, so a float or a string raises TypeError before any node
    runs; a limit below 1 or a negative budget raises ParameterError.  As in exact_max_code, the wall clock is
    read every 256 nodes, so even a zero wall budget pops 256 nodes.

    When `checkpoint` names an existing nonempty file, the search resumes
    from the partial assignments listed there: a {"k", "m"} header line,
    then one JSON object per frontier node.  A file written for other
    parameters, without a header, with a header alone, or listing a node
    the tree never reaches is refused, and left as it was.  On a budget
    stop the unexplored frontier is written back to it through a temporary
    file and an atomic rename; an exhausted search leaves it empty.
    """
    k, m = operator.index(k), operator.index(m)
    if k < 1:
        raise ParameterError(f"need k >= 1, got k={k}")
    if 2 * k > m:
        raise ParameterError(f"infeasible: 2k = {2 * k} exceeds m = {m}")
    most = math.inf if limit is None else operator.index(limit)
    budget = math.inf if node_budget is None else operator.index(node_budget)
    wall = math.inf if wall_budget_s is None else wall_budget_s
    if most < 1:
        raise ParameterError(f"limit must be >= 1, got {limit}")
    if budget < 0:
        raise ParameterError(f"node budget must be nonnegative, got {node_budget}")
    if wall < 0:
        raise ParameterError(f"wall budget must be nonnegative, got {wall_budget_s}")

    tables = _residue_tables(m)
    stack: list[_Node]
    ckpt = Path(checkpoint) if checkpoint is not None else None
    saved = ckpt.read_text(encoding="utf-8") if ckpt is not None and ckpt.exists() else ""
    lines = [line for line in saved.splitlines() if line.strip()]
    if lines:
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if not isinstance(header, dict) or set(header) != {"k", "m"}:
            raise ParameterError(f"checkpoint {ckpt} has no (k, m) header; refusing to resume")
        if (header["k"], header["m"]) != (k, m):
            raise ParameterError(
                f"checkpoint {ckpt} holds a (k, m) = ({header['k']}, {header['m']}) frontier, "
                f"not ({k}, {m})"
            )
        if len(lines) == 1:  # a search that stops writes its frontier; one that ends, nothing
            raise ParameterError(f"checkpoint {ckpt} holds a (k, m) header but no frontier; refusing to resume")
        stack = []
        for line in lines[1:]:
            try:
                obj = json.loads(line)
                node = _replay(tuple(obj["S"]), tuple(obj["T"]), k, m, tables)
            except (ValueError, KeyError, TypeError):  # not an {"S": [...], "T": [...]} object
                node = None
            if node is None:
                raise ParameterError(f"checkpoint {ckpt} lists a node outside the ({k}, {m}) tree: {line}")
            stack.append(node)
        stack.reverse()  # file lists frontier top-first
    else:
        stack = [_replay((0,), (), k, m, tables)]

    found: dict[tuple[tuple[int, ...], tuple[int, ...]], CyclicGeneratorPair] = {}
    nodes = 0
    stopped = False
    t0 = time.monotonic()
    while stack:
        if nodes >= budget or (nodes and nodes % 256 == 0 and time.monotonic() - t0 > wall):
            stopped = True
            break
        node = stack.pop()
        nodes += 1
        s, t = node[0], node[1]
        if len(t) == k:
            canon = _canonical_form(m, s, t)
            if canon not in found:
                found[canon] = CyclicGeneratorPair(m, canon[0], canon[1])
                if len(found) >= most:
                    stopped = True
                    break
            continue
        stack.extend(reversed(_extensions(node, k, m, tables)))

    frontier = [node[:2] for node in reversed(stack)]
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
    code = Code._from_rows(m, k, 2, 0, 2 * k - 1, _orbit_rows((g.s_set, g.t_set), m).reshape(m, 2 * k))
    if len(code) != m:
        raise ParameterError("orbit collapsed; generator pair is degenerate")
    return code


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
    for gen in gens:
        if gen.k != k:
            raise PartSizeError(f"generator {gen._key()} has parts of size {gen.k}, expected {k}")
        if gen.s != 2:
            raise ParameterError(f"word {gen!r} does not match code parameters")
    rows: set[tuple[int, ...]] = set()
    for i, gen in enumerate(gens):
        orbit = set(map(tuple, _orbit_rows(gen._key(), m).reshape(m, 2 * k).tolist()))
        clash = rows & orbit
        if clash:
            shared = min(clash)
            raise ParameterError(
                f"generator {i} shares orbit word {(shared[:k], shared[k:])} with an earlier generator"
            )
        rows |= orbit
    code = Code._from_rows(m, k, 2, 0, d, np.array(list(rows)))
    verify_code(code)
    return code
