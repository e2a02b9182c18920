"""Block designs and packings: construction, verification, and composition.

A (v, K, t)-packing covers every t-subset of the point set at most once;
a design covers each exactly once.  Packings with t = 2k-d+1 let codes on
the blocks combine into one code on [v]: words in different blocks share
at most t-1 = 2k-d points, which already forces distance >= d.

The searches and greedies here run on the engines of cyclic
(_extensions) and _greedy_fast (_permuted_chunks, claim_greedy).
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from pathlib import Path
from typing import Mapping

import numpy as np

from . import _greedy_fast
from ._greedy_fast import SPACE_CAP, STREAM_CAP, _permuted_chunks, claim_greedy
from .core import Code, ParameterError, _int_rows, _json_int, _parse_float, _universe_rows
from .cyclic import _extensions, _replay, _residue_tables

_VERIFY_T_SUBSET_CAP = 5_000_000
_GREEDY_BLOCK_CAP = 2_000_000


@dataclass(frozen=True)
class BlockDesign:
    """Blocks over the point set [0, v) for strength t."""

    v: int
    t: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        v, t = operator.index(self.v), operator.index(self.t)
        if v < 0 or t < 1:
            raise ParameterError(f"need v >= 0 and t >= 1, got v={v}, t={t}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", t)
        blocks = []
        for block in self.blocks:
            b = tuple(sorted(map(operator.index, block)))
            if len(set(b)) != len(b):
                raise ParameterError(f"block {block} repeats a point")
            if b and (b[0] < 0 or b[-1] >= v):
                raise ParameterError(f"block {block} leaves the point set [0, {v})")
            blocks.append(b)
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))


@dataclass(frozen=True)
class DesignVerification:
    """Strongest valid label, with a violating t-subset as the certificate."""

    label: str  # "design" | "packing" | "invalid"
    violation: tuple[int, ...] | None = None
    covered: int = 0


@lru_cache(maxsize=8)
def _colex_table(v: int, t: int) -> np.ndarray:
    """Read-only (t, v) int64 table: row i holds C(x, i + 1) at x in [i, v - t + i], zero elsewhere.

    Row i + 1 is the prefix sum of row i (C(x, j + 1) = sum of C(y, j) over y < x),
    so only entries below C(v, t) are ever summed.
    """
    table = np.zeros((t, v), dtype=np.int64)
    row = np.arange(v, dtype=np.int64)
    for i in range(t):
        row[v - t + i + 1 :] = 0
        table[i] = row
        row[1:] = np.cumsum(row[:-1])  # row[0] stays C(0, i + 2) = 0
    table.flags.writeable = False
    return table


def _colex_ranks(rows: np.ndarray, combos: np.ndarray, v: int) -> np.ndarray:
    """Colex ranks sum_i C(x_i, i + 1) of the sorted t-subsets rows[:, combos] of [0, v).

    rows are sorted point rows and combos the (C(p, t), t) position table;
    the result is (C(p, t), len(rows)), one row per position.  Each of the
    t terms is one 1-D gather of the rows from the cached _colex_table(v, t),
    then a gather of its combos column.
    """
    points = rows.T
    return sum(row.take(points)[column] for row, column in zip(_colex_table(v, combos.shape[1]), combos.T))


def verify_design(design: BlockDesign) -> DesignVerification:
    """Exhaustively count t-subset coverage and label the block family.

    Refuses point sets whose C(v, t) exceeds the desk-scale cap rather
    than sampling.  Each t-subset of each block becomes its colex rank (an
    int below C(v, t)) and marks a C(v, t)-byte bitmap; the family repeats
    a t-subset iff fewer bits are set than ranks were marked.  Only then
    are the ranks put in block order, then combinations order, and
    stable-sorted for the certificate: the t-subset whose second
    occurrence comes first, with the number of distinct t-subsets seen
    before it.  A repeat must occur among the first C(v, t) + 1 t-subsets,
    so no more are ranked.
    """
    v, t = design.v, design.t
    total = math.comb(v, t)
    if total > _VERIFY_T_SUBSET_CAP:
        raise ParameterError(
            f"C({v},{t}) = {total} t-subsets exceeds the verification cap {_VERIFY_T_SUBSET_CAP}"
        )
    blocks = design.blocks
    starts = [0]
    for block in blocks:
        if starts[-1] > total:
            break
        starts.append(starts[-1] + math.comb(len(block), t))
    by_size: dict[int, list[int]] = {}
    for index in range(len(starts) - 1):
        by_size.setdefault(len(blocks[index]), []).append(index)
    groups = [(size, indices) for size, indices in by_size.items() if size >= t]
    ranks = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [
            _colex_ranks(_int_rows([blocks[i] for i in indices], size), _universe_rows(size, t, 1, 0), v).ravel()
            for size, indices in groups
        ]
    )
    seen = np.zeros(total, dtype=bool)
    seen[ranks] = True
    if np.count_nonzero(seen) == len(ranks):
        return DesignVerification("design" if len(ranks) == total else "packing", covered=len(ranks))
    positions = np.concatenate(
        [(np.arange(math.comb(size, t))[:, None] + [starts[i] for i in indices]).ravel() for size, indices in groups]
    )
    in_order = np.empty_like(ranks)
    in_order[positions] = ranks
    order = np.argsort(in_order, kind="stable")
    ordered = in_order[order]
    first = int(order[1:][ordered[1:] == ordered[:-1]].min())
    index = bisect_right(starts, first) - 1
    sub = next(islice(combinations(blocks[index], t), first - starts[index], None))
    return DesignVerification("invalid", violation=sub, covered=first)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def affine_plane(p: int) -> BlockDesign:
    """The affine plane of prime order p as an S(p^2, p, 2).

    Points are (x, y) encoded as x*p + y; blocks are the p^2 lines
    y = a*x + b plus the p verticals.
    """
    if not _is_prime(p):
        raise ParameterError(f"order must be prime, got {p}")
    blocks = []
    for c in range(p):
        blocks.append(tuple(c * p + y for y in range(p)))
    for a in range(p):
        for b in range(p):
            blocks.append(tuple(sorted(x * p + (a * x + b) % p for x in range(p))))
    return BlockDesign(v=p * p, t=2, blocks=tuple(blocks))


def zero_sum_quadruples(r: int) -> BlockDesign:
    """All 4-subsets of GF(2)^r with zero XOR, an S(2^r, 4, 3)."""
    if r < 2:
        raise ParameterError(f"need r >= 2, got {r}")
    v = 1 << r
    blocks = []
    for a in range(v):
        for b in range(a + 1, v):
            for c in range(b + 1, v):
                d = a ^ b ^ c
                if d > c:
                    blocks.append((a, b, c, d))
    return BlockDesign(v=v, t=3, blocks=tuple(blocks))


def planar_difference_set(q: int) -> tuple[int, ...] | None:
    """Search for q+1 residues mod q^2+q+1 with all nonzero differences distinct.

    At odd m, distinct circular distances are distinct differences, so
    this walks the S phase of the antagonistic tree with k = q+1 from
    S = {0, 1} (any solution translates to contain a difference 1).
    Returns None when the tree exhausts, as for orders with no plane.
    q is read as an integer, so a float or a string raises TypeError.
    """
    q = operator.index(q)
    if q < 2:
        raise ParameterError(f"need q >= 2, got {q}")
    m = q * q + q + 1
    size = q + 1
    tables = _residue_tables(m)
    stack = [_replay((0, 1), (), size, m, tables)]
    while stack:
        node = stack.pop()
        if len(node[0]) == size:
            return node[0]
        stack.extend(reversed(_extensions(node, size, m, tables)))
    return None


def develop_difference_set(base: tuple[int, ...] | list[int], m: int) -> BlockDesign:
    """All m translates of a residue set mod m, as strength-2 blocks; m >= 1 is read as an integer."""
    if (m := operator.index(m)) < 1:
        raise ParameterError(f"need modulus m >= 1, got m={m}")
    pts = [operator.index(x) % m for x in base]
    if len(set(pts)) != len(pts):
        raise ParameterError(f"base set {base} collides mod {m}")
    blocks = tuple(tuple(sorted((x + u) % m for x in pts)) for u in range(m))
    return BlockDesign(v=m, t=2, blocks=blocks)


def greedy_packing(v: int, p: int, t: int, seed: int) -> BlockDesign:
    """Seeded greedy (v, p, t)-packing over the p-subsets' lex ranks in _permuted_chunks order.

    Blocks and their t-subset positions are rows of core._universe_rows.  A
    block is kept iff none of its t-subsets (claimed as colex ranks) is
    covered yet.  Chunks hold at most _greedy_fast._CHUNK keys (read at call
    time), and each chunk's C(p, t) positions are ranked in one call; the
    order ignores chunking.
    """
    if not v >= p >= t >= 1 or seed < 0:
        raise ParameterError(f"need v >= p >= t >= 1 and seed >= 0, got ({v},{p},{t}), seed {seed}")
    if math.comb(v, p) > _GREEDY_BLOCK_CAP:
        raise ParameterError(f"C({v},{p}) exceeds the greedy candidate cap {_GREEDY_BLOCK_CAP}")
    if math.comb(v, t) > SPACE_CAP or math.comb(v, p) * math.comb(p, t) > STREAM_CAP:
        raise ParameterError(f"C({v},{t}) claims or C({v},{p}) * C({p},{t}) keys above cap {SPACE_CAP} or {STREAM_CAP}")
    table = _universe_rows(v, p, 1, 0)
    combos = _universe_rows(p, t, 1, 0)
    claimed = np.zeros(math.comb(v, t), dtype=bool)
    blocks: list[list[int]] = []
    for ids in _permuted_chunks(len(table), seed, max(1, _greedy_fast._CHUNK // len(combos))):
        rows = table[ids]
        hits = claim_greedy(list(_colex_ranks(rows, combos, v)), claimed)
        blocks.extend(rows[hits].tolist())
    return BlockDesign(v=v, t=t, blocks=tuple(blocks))


def compose_code(
    design: BlockDesign,
    bases: Mapping[int, Code] | Code,
    k: int,
    d: int,
) -> Code:
    """Embed a verified base code into every block of a t-packing.

    Requires t = 2k-d+1 and, for each block size used, a base code with
    that many points, the same k, and a *verified* minimum distance >= d.
    Blocks with no matching base code contribute nothing (a warning is
    emitted).  The embedding maps base point i to the block's i-th
    smallest point, so outputs are reproducible.

    Blocks are grouped by size and each group maps every base word at
    once, as one numpy gather `blocks[:, base.rows]`.  Blocks are sorted
    and the map is monotone, so each image part stays sorted, the part
    order is kept, and the rows go straight to the trusted constructor
    `Code._from_rows`; no word object is built.  Words from different
    blocks share at most 2k-d points, so the one final length check below
    fails only on a real fault.
    """
    t = 2 * k - d + 1
    if design.t != t:
        raise ParameterError(f"packing strength t={design.t}, composition needs t={t}")
    verdict = verify_design(design)
    if verdict.label == "invalid":
        raise ParameterError(f"blocks cover t-subset {verdict.violation} more than once")
    if isinstance(bases, Code):
        bases = {bases.n: bases}
    for size, base in bases.items():
        if base.n != size:
            raise ParameterError(f"base code keyed {size} has n={base.n}")
        if base.k != k or base.s != 2 or base.q != 0:
            raise ParameterError(f"base code on {size} points does not match (k={k}, s=2, set world)")
        vmd = base.verified_min_distance
        if vmd is None:
            raise ParameterError(f"base code on {size} points is unverified; verify it first")
        if vmd < d:
            raise ParameterError(f"base code on {size} points has verified distance {vmd} < {d}")
    groups: dict[int, list[tuple[int, ...]]] = {}
    for block in design.blocks:
        if len(block) in bases:
            groups.setdefault(len(block), []).append(block)
        else:
            warnings.warn(
                f"no base code for block size {len(block)}; block skipped",
                stacklevel=2,
            )
    images = [np.array(blocks, dtype=np.int32)[:, bases[size].rows] for size, blocks in groups.items()]
    rows = np.concatenate([np.empty((0, 2 * k), dtype=np.int32), *(image.reshape(-1, 2 * k) for image in images)])
    code = Code._from_rows(design.v, k, 2, 0, d, rows)
    if len(code) != len(rows):
        raise ParameterError(f"{len(rows) - len(code)} embedded words duplicate others")
    return code


def design_to_json(design: BlockDesign) -> str:
    """Stable wire format: {"v":int,"t":int,"blocks":[[int,...],...]}."""
    payload = {
        "v": design.v,
        "t": design.t,
        "blocks": [list(b) for b in design.blocks],
    }
    return json.dumps(payload, separators=(",", ":"))


def design_from_json(text: str) -> BlockDesign:
    try:
        obj = json.loads(text, parse_float=_parse_float)
        return BlockDesign(v=_json_int(obj, "v"), t=_json_int(obj, "t"), blocks=tuple(map(tuple, obj["blocks"])))
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed design file: {exc}") from exc


def save_design(design: BlockDesign, path: str | Path) -> None:
    Path(path).write_text(design_to_json(design), encoding="utf-8")


def load_design(path: str | Path) -> BlockDesign:
    return design_from_json(Path(path).read_text(encoding="utf-8"))
