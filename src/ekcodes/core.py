"""Canonical codeword types over a finite ground set, plus enumerators.

Ground sets are 0-based: elements live in [0, n).  Every word type is
immutable and normalized to one canonical representative on construction,
so structural equality, hashing, and byte-stable serialization hold
everywhere else in the package without further care.

Validation happens at the API: the public constructors (KSubset, STuple,
canonicalize, Code, code_from_json) check every input.

A Code holds rows, not words: one read-only int32 table of canonical
incidence rows (`_incidence_rows`), one row per word in code_to_json's
order.  Kernels whose rows are canonical by construction (a monotone
gather through sorted blocks, sorted translates, the greedy word stream,
the exact search) pass them to the one trusted constructor,
`Code._from_rows`, which sorts them and drops repeats without checking a
word.  A code built from words derives its rows at once.  Words come
from rows in one place, `_row_words`, and only through the checked
constructors, so every word the package hands out (`code.words`, the
public enumerators) has passed their checks, and a bad trusted row
raises there.  `_universe_blocks` is the one enumerator of a universe's
rows; the public enumerators build words from it one block at a time.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, product
from operator import attrgetter, index, mul
from pathlib import Path
from typing import Collection, Iterable, Iterator

import numpy as np

_ROW_BLOCK = 1 << 12  # words built per block by the enumerators


class ParameterError(ValueError):
    """Parameters outside an operation's domain."""


class PartSizeError(ParameterError):
    """A part has the wrong number of distinct elements."""


class ElementRangeError(ParameterError):
    """An element falls outside the ground set [0, n)."""


class OverlapError(ParameterError):
    """Two parts of one word share an element."""


class DegenerateParametersWarning(UserWarning):
    """Parameters admit no words at all (s*k > n)."""


@dataclass(frozen=True, slots=True)
class KSubset:
    """A strictly increasing k-subset of the ground set [0, n)."""

    n: int
    elements: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        n = index(self.n)
        if n < 0:
            raise ParameterError(f"ground set size must be nonnegative, got n={n}")
        object.__setattr__(self, "n", n)
        elems = tuple(map(index, self.elements))
        object.__setattr__(self, "elements", elems)
        # one pass: order and duplicates first, range after, as sorted input
        # can only leave [0, n) at its first or last element
        mask = 0
        outside = False
        prev = elems[0] - 1 if elems else 0
        for e in elems:
            if e <= prev:
                if e == prev:
                    raise PartSizeError(f"duplicate element {e} in part {elems}")
                raise ParameterError(f"elements must be sorted ascending, got {elems}")
            if 0 <= e < n:
                mask |= 1 << e
            else:
                outside = True
            prev = e
        if outside:
            bad = elems[0] if elems[0] < 0 else elems[-1]
            raise ElementRangeError(f"element {bad} outside ground set [0, {n})")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def of(cls, elements: Iterable[int], n: int) -> "KSubset":
        """Build from an unordered collection, sorting the elements."""
        return _part_of(elements, index(n))

    def isdisjoint(self, other: "KSubset") -> bool:
        return not (self.mask & other.mask)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, e: int) -> bool:
        return bool(self.mask >> e & 1) if 0 <= e < self.n else False


_elements = attrgetter("elements")
_bit = (1).__lshift__
_setattr = object.__setattr__


def _part_of(elements: Iterable[int], n: int) -> KSubset:
    """KSubset.of for an n already read as an int."""
    elems = tuple(sorted(map(index, elements)))
    # sorted, only the ends can leave [0, n); inside it, the bits sum
    # without a carry exactly when the elements are distinct
    if elems and elems[0] >= 0 and elems[-1] < n:
        mask = sum(map(_bit, elems))
        if mask.bit_count() == len(elems):
            return _new_part(n, elems, mask)
    return KSubset(n, elems)  # raises __post_init__'s error, or builds the empty part


def _new_part(n: int, elements: tuple[int, ...], mask: int) -> KSubset:
    """A KSubset from fields already checked, without __post_init__."""
    part = object.__new__(KSubset)
    _setattr(part, "n", n)
    _setattr(part, "elements", elements)
    _setattr(part, "mask", mask)
    return part


@dataclass(frozen=True, eq=False, slots=True)
class STuple:
    """An unordered tuple of pairwise disjoint k-subsets, stored sorted.

    Parts are sorted lexicographically; since they are disjoint this is
    the same as sorting by smallest element.  Subclasses compare equal to
    plain STuples with the same parts, so the pair view and the general
    view of one word are interchangeable.
    """

    parts: tuple[KSubset, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise ParameterError("a word needs at least one part")
        n, k = parts[0].n, len(parts[0].elements)
        if k < 1:
            raise PartSizeError("parts must have k >= 1 elements")
        union = 0
        for p in parts:
            if p.n != n:
                raise ParameterError(f"mixed ground sets: {p.n} != {n}")
            if len(p.elements) != k:
                raise PartSizeError(f"part {p.elements} has size {len(p.elements)}, expected {k}")
            if union & p.mask:
                shared = union & p.mask
                raise OverlapError(
                    f"parts overlap on element {shared.bit_length() - 1}"
                )
            union |= p.mask
        object.__setattr__(self, "parts", tuple(sorted(parts, key=_elements)))

    @property
    def n(self) -> int:
        return self.parts[0].n

    @property
    def k(self) -> int:
        return len(self.parts[0])

    @property
    def s(self) -> int:
        return len(self.parts)

    def masks(self) -> tuple[int, ...]:
        return tuple(p.mask for p in self.parts)

    def as_lists(self) -> list[list[int]]:
        return [list(p.elements) for p in self.parts]

    def as_pair(self) -> "DisjointPair":
        """View a 2-part word as a DisjointPair (round-trips freely)."""
        return DisjointPair(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, STuple) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(tuple([p.elements for p in self.parts]))  # == hash(self._key())

    def __lt__(self, other: "STuple") -> bool:
        return self._key() < other._key()

    def _key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.elements for p in self.parts)


@dataclass(frozen=True, eq=False, slots=True)
class DisjointPair(STuple):
    """A word with exactly two parts; the s=2 special case of STuple."""

    def __post_init__(self) -> None:
        STuple.__post_init__(self)  # zero-argument super() fails in slotted dataclasses
        if len(self.parts) != 2:
            raise ParameterError(f"a DisjointPair has 2 parts, got {len(self.parts)}")

    @classmethod
    def from_sets(cls, a: Iterable[int], b: Iterable[int], n: int) -> "DisjointPair":
        return cls((KSubset.of(a, n), KSubset.of(b, n)))

    @property
    def a(self) -> KSubset:
        return self.parts[0]

    @property
    def b(self) -> KSubset:
        return self.parts[1]


def canonicalize(raw: Iterable[Iterable[int]], n: int, k: int | None = None) -> STuple:
    """Build the canonical STuple from raw part collections.

    Elements are sorted within parts and parts are sorted among
    themselves, so the result is independent of any input ordering.
    Overlaps, out-of-range elements, and wrong part sizes raise
    OverlapError, ElementRangeError, and PartSizeError respectively.
    """
    n = index(n)  # once per word, not once per part
    parts = [_part_of(p, n) for p in raw]
    if k is not None:
        for p in parts:
            if len(p.elements) != k:
                raise PartSizeError(f"part {p.elements} has size {len(p.elements)}, expected {k}")
    return STuple(tuple(parts))


def _incidence_rows(words: Collection, n: int, k: int, s: int, q: int) -> np.ndarray:
    """Each word as one row of distinct incidence ids, s parts of equal width.

    A set-world part lists its elements.  A weight-k q-ary word lists its
    support positions i and then n + i*q + u_i, so two words share
    |supp u & supp v| + |{i : u_i = v_i != 0}| = 2k - d_H(u, v) ids; a
    q-ary pair lists u's ids and then v's.
    """
    if q == 0:
        elements = chain.from_iterable([part.elements for w in words for part in w.parts])
        return np.fromiter(elements, dtype=np.int32).reshape(len(words), s * k)
    members = [(w,) if s == 1 else (w.u, w.v) for w in words]
    symbols = np.array([[m.symbols for m in ms] for ms in members], dtype=np.int32).reshape(len(words), s, n)
    support = np.nonzero(symbols)[2].reshape(len(words), s, k).astype(np.int32)
    values = np.take_along_axis(symbols, support, axis=2)
    return np.concatenate([support, n + support * q + values], axis=2).reshape(len(words), 2 * s * k)


def _int_rows(tuples: list[tuple[int, ...]], width: int) -> np.ndarray:
    """Equal-length int tuples as an int32 array of shape (len(tuples), width)."""
    return np.fromiter(chain.from_iterable(tuples), np.int32, len(tuples) * width).reshape(len(tuples), width)


def _universe_blocks(n: int, k: int, s: int, q: int) -> Iterator[np.ndarray]:
    """A universe's incidence rows in lex order, about _ROW_BLOCK at a time; none if degenerate.

    q-ary rows (single words) pair each support with every nonzero value tuple.
    """
    if q:
        if k > n:
            return
        values = _int_rows(list(product(range(1, q), repeat=k)), k)
        supports = combinations(range(n), k)
        while chunk := list(islice(supports, max(1, _ROW_BLOCK // len(values)))):
            support = np.repeat(_int_rows(chunk, k), len(values), axis=0)
            yield np.concatenate([support, n + support * q + np.tile(values, (len(chunk), 1))], axis=1)
        return

    def extend(prefix: tuple[int, ...], remaining: list[int]) -> Iterator[tuple[int, ...]]:
        # parts are ordered by their minima: later parts use only elements above this one's first
        if len(prefix) == s * k:
            yield prefix
            return
        if len(remaining) < s * k - len(prefix):
            return
        for combo in combinations(remaining, k):
            yield from extend(prefix + combo, [e for e in remaining if e > combo[0] and e not in combo])

    rows = extend((), list(range(n)))
    while chunk := list(islice(rows, _ROW_BLOCK)):
        yield _int_rows(chunk, s * k)


def _universe_rows(n: int, k: int, s: int, q: int) -> np.ndarray:
    """All of _universe_blocks as one int32 table: the rows of enumerate_words or enumerate_qary_words."""
    width = 2 * k if q else s * k
    return np.concatenate([np.empty((0, width), dtype=np.int32), *_universe_blocks(n, k, s, q)])


def _row_symbols(rows: np.ndarray, n: int, k: int, s: int, q: int) -> np.ndarray:
    """The symbol vectors (words, s, n) of q-ary incidence rows: _incidence_rows inverted."""
    parts = rows.reshape(len(rows) * s, 2 * k)
    symbols = np.zeros((len(parts), n), dtype=np.int32)
    np.put_along_axis(symbols, parts[:, :k], parts[:, k:] - n - parts[:, :k] * q, axis=1)
    return symbols.reshape(len(rows), s, n)


def _row_words(rows: np.ndarray, n: int, k: int, s: int, q: int) -> list:
    """Words from rows through the checked constructors: _incidence_rows inverted."""
    if not q:
        return [STuple(tuple([KSubset.of(part, n) for part in word])) for word in rows.reshape(-1, s, k).tolist()]
    members = [[QaryWord(n, q, tuple(m)) for m in word] for word in _row_symbols(rows, n, k, s, q).tolist()]
    return [m for m, in members] if s == 1 else [QaryPairWord(u, v) for u, v in members]


def _sorted_rows(rows: np.ndarray, n: int, k: int, s: int, q: int) -> np.ndarray:
    """Canonical rows in code_to_json's order, repeats dropped, as a read-only int32 table.

    Set-world rows sort as they are; q-ary rows sort by their symbol vectors.
    """
    rows = np.asarray(rows, dtype=np.int32)
    keys = _row_symbols(rows, n, k, s, q).reshape(len(rows), s * n) if q else rows
    order = np.lexsort(keys.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)  # the first row of each run of equal rows
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[first]
    rows.flags.writeable = False
    return rows


def word_count(n: int, k: int, s: int = 2) -> int:
    """Number of words: (1/s!) * prod_i C(n - i*k, k)."""
    if k < 1 or s < 1:
        raise ParameterError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    if s * k > n:
        return 0
    total = math.prod(math.comb(n - i * k, k) for i in range(s))
    return total // math.factorial(s)


def enumerate_words(n: int, k: int, s: int = 2) -> Iterator[STuple]:
    """Yield every canonical word on [0, n) exactly once, in lex order.

    Degenerate parameters (s*k > n) yield an empty stream and emit a
    DegenerateParametersWarning.  Memory is O(_ROW_BLOCK) at any size.
    """
    if not word_count(n, k, s):  # raises ParameterError unless k >= 1 and s >= 1
        message = f"no words exist for n={n}, k={k}, s={s} (s*k > n)"
        warnings.warn(message, DegenerateParametersWarning, stacklevel=2)
        return
    for rows in _universe_blocks(n, k, s, 0):
        yield from _row_words(rows, n, k, s, 0)


@dataclass(frozen=True, slots=True)
class QaryWord:
    """A length-n word over {0, ..., q-1}; its weight is its support size."""

    n: int
    q: int
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        n, q = self.n, self.q
        if type(n) is not int or type(q) is not int:  # converting plain ints too adds ~20% to a build
            n, q = index(n), index(q)
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "q", q)
        if q < 2:
            raise ParameterError(f"alphabet needs q >= 2, got q={q}")
        syms = tuple(self.symbols)
        try:  # int-like symbols all in [0, 256) become Python ints in C
            syms, low = tuple(bytes(syms)), 0
        except (TypeError, ValueError):  # a non-integer, a float included, raises TypeError here
            syms = tuple(map(index, syms))
            low = min(syms, default=0)
        object.__setattr__(self, "symbols", syms)
        if len(syms) != n:
            raise ParameterError(f"expected {n} symbols, got {len(syms)}")
        if low < 0 or max(syms, default=0) >= q:
            bad = next(x for x in syms if not 0 <= x < q)  # the first, to name it
            raise ElementRangeError(f"symbol {bad} outside alphabet [0, {q})")

    @property
    def weight(self) -> int:
        return self.n - self.symbols.count(0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.symbols) if x)


@dataclass(frozen=True, slots=True)
class QaryPairWord:
    """An unordered pair of q-ary words with disjoint supports."""

    u: QaryWord
    v: QaryWord

    def __post_init__(self) -> None:
        u, v = self.u, self.v
        if u.n != v.n or u.q != v.q:
            raise ParameterError("pair members must share (n, q)")
        a, b = u.symbols, v.symbols
        if a.count(0) != b.count(0):  # n - weight
            raise ParameterError("pair members must have equal weight")
        if any(map(mul, a, b)):  # a position where both are nonzero
            raise OverlapError("supports of the two words overlap")
        if b < a:
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)

    @property
    def n(self) -> int:
        return self.u.n

    @property
    def q(self) -> int:
        return self.u.q


def qary_word_count(n: int, k: int, q: int) -> int:
    """Number of weight-k q-ary words: C(n, k) * (q-1)^k."""
    if k < 0 or q < 2:
        raise ParameterError(f"need k >= 0 and q >= 2, got k={k}, q={q}")
    return math.comb(n, k) * (q - 1) ** k


def enumerate_qary_words(n: int, k: int, q: int) -> Iterator[QaryWord]:
    """Yield every weight-k q-ary word of length n, in lex order of (support, values)."""
    if k < 0 or q < 2:
        raise ParameterError(f"need k >= 0 and q >= 2, got k={k}, q={q}")
    for rows in _universe_blocks(n, k, 1, q):
        yield from _row_words(rows, n, k, 1, q)


Word = STuple | QaryWord | QaryPairWord


def _check_parameters(n: int, k: int, s: int, q: int, d: int) -> tuple[int, int, int, int, int]:
    """A code's parameter checks, shared by both constructors: (n, k, s, q, d) read as ints."""
    n, k, s, q, d = map(index, (n, k, s, q, d))
    if k < 1 or s < 1 or d < 1:
        raise ParameterError(f"need k, s, d >= 1, got k={k}, s={s}, d={d}")
    if q == 1 or q < 0:
        raise ParameterError(f"q must be 0 (set world) or >= 2, got q={q}")
    if q and s > 2:
        raise ParameterError(f"q-ary codes support s in {{1, 2}}, got s={s}")
    return n, k, s, q, d


# q == 0 marks set-world codes; q >= 2 marks q-ary codes (s=1 single words,
# s=2 disjoint-support pairs).
class Code:
    """A set of canonical codewords with shared parameters and a claimed distance.

    A code holds its words as one read-only int32 table of canonical
    incidence rows (`rows`, see _incidence_rows), one row per word in
    code_to_json's order.  The public constructor reads `words` once,
    checks every word and derives the rows at once; kernels that build
    canonical rows use the trusted `_from_rows`, and such a code builds
    `words` through the checked constructors on first access.
    """

    __slots__ = ("n", "k", "s", "q", "d", "verified_min_distance", "_words", "_rows")
    __hash__ = None  # mutable: verify_code stores its result

    def __init__(
        self,
        n: int,
        k: int,
        s: int,
        q: int,
        d: int,
        words: Collection,
        verified_min_distance: int | float | None = None,
    ) -> None:
        n, k, s, q, d = _check_parameters(n, k, s, q, d)
        if not isinstance(words, frozenset):
            words = tuple(words)  # an iterator is read once, before the checks
        if q == 0:
            shape = (n, k, s)
            for w in words:
                if not isinstance(w, STuple) or (w.parts[0].n, len(w.parts[0].elements), len(w.parts)) != shape:
                    raise ParameterError(f"word {w!r} does not match code parameters")
        elif s == 1:
            for w in words:
                if not isinstance(w, QaryWord) or (w.n, w.q) != (n, q):
                    raise ParameterError(f"word {w!r} does not match code parameters")
                if w.weight != k:
                    raise ParameterError(f"word {w!r} has weight {w.weight}, expected {k}")
        else:
            for w in words:
                if not isinstance(w, QaryPairWord) or (w.n, w.q) != (n, q):
                    raise ParameterError(f"word {w!r} does not match code parameters")
                if w.u.weight != k:
                    raise ParameterError(f"word {w!r} has weight {w.u.weight}, expected {k}")
        self.n, self.k, self.s, self.q, self.d = n, k, s, q, d
        self.verified_min_distance = verified_min_distance
        self._words = frozenset(words)
        self._rows = _sorted_rows(_incidence_rows(self._words, n, k, s, q), n, k, s, q)

    @classmethod
    def _from_rows(cls, n: int, k: int, s: int, q: int, d: int, rows: np.ndarray) -> "Code":
        """The code of canonical rows, trusted: sorted and repeats dropped, no word checked.

        Callers that must not lose a repeat compare len(code) with their row count.
        """
        n, k, s, q, d = _check_parameters(n, k, s, q, d)
        code = object.__new__(cls)
        code.n, code.k, code.s, code.q, code.d = n, k, s, q, d
        code.verified_min_distance = None
        code._words = None
        code._rows = _sorted_rows(rows, n, k, s, q)
        return code

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def words(self) -> frozenset:
        if self._words is None:
            self._words = frozenset(_row_words(self._rows, self.n, self.k, self.s, self.q))
        return self._words

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.n, self.k, self.s, self.q, self.d, self.verified_min_distance)
            == (other.n, other.k, other.s, other.q, other.d, other.verified_min_distance)
            and np.array_equal(self.rows, other.rows)
        )

    def __repr__(self) -> str:
        return (
            f"Code(n={self.n!r}, k={self.k!r}, s={self.s!r}, q={self.q!r}, d={self.d!r}, "
            f"words={self.words!r}, verified_min_distance={self.verified_min_distance!r})"
        )


def _parse_float(text: str) -> int:
    """json's parse_float hook for code and design files: an integral float as an int, any other refused."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text} is not an integer")
    return int(value)


def _json_int(obj: dict, key: str) -> int:
    """A code or design file's header field; TypeError unless a JSON integer."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


def code_to_json(code: Code) -> str:
    """Serialize to the stable wire format (fixed key order, no whitespace)."""
    vmd = code.verified_min_distance
    n, k, s, q = code.n, code.k, code.s, code.q
    words = code.rows.reshape(-1, s, k) if q == 0 else _row_symbols(code.rows, n, k, s, q)
    payload = {
        "n": n,
        "k": k,
        "s": s,
        "q": q,
        "d": code.d,
        "words": words.tolist(),
        "verified_min_distance": vmd if isinstance(vmd, int) else None,
    }
    return json.dumps(payload, separators=(",", ":"))


def code_from_json(text: str) -> Code:
    """Parse the wire format back into a Code, re-canonicalizing every word."""
    try:
        obj = json.loads(text, parse_float=_parse_float)
        n, k, s, q, d = (_json_int(obj, key) for key in ("n", "k", "s", "q", "d"))
        raw_words = obj["words"]
        vmd = obj.get("verified_min_distance")
        if not (vmd is None or type(vmd) is int):
            raise TypeError(f"verified_min_distance {vmd!r} is not an integer")
        words: set = set()
        for row in raw_words:
            if q == 0:
                words.add(canonicalize(row, n, k))
            elif s == 1:
                words.add(QaryWord(n, q, tuple(row[0])))
            else:
                words.add(QaryPairWord(QaryWord(n, q, tuple(row[0])), QaryWord(n, q, tuple(row[1]))))
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed code file: {exc}") from exc
    if len(words) != len(raw_words):
        raise ParameterError("code file contains duplicate words")
    return Code(n, k, s, q, d, frozenset(words), vmd)


def save_code(code: Code, path: str | Path) -> None:
    Path(path).write_text(code_to_json(code), encoding="utf-8")


def load_code(path: str | Path) -> Code:
    return code_from_json(Path(path).read_text(encoding="utf-8"))
