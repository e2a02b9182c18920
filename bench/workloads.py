"""The four workloads: seeded, fixed operation lists, how to run them and how to check them.

Every workload builds its operation list from (seed, round) alone, and the
mix of operation sizes is the same for every seed, so the quantiles do not
move between seeds.  Continuous sizes (block counts, node budgets) are
stratified draws: one draw in each equal slice of a range.  Small integer
sizes (n, d, request lengths) run on a fixed grid.  The seed picks everything
else: greedy seeds, which blocks, budgets within their slices, query
inputs, and the order.  The program is called through module attributes
(``search.verify_code``), so the tracer can wrap them.

Each operation is timed alone; its output is checked right after, outside
the timed interval, by the independent checks in ``oracle``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ekcodes import bounds, cli, core, cyclic, designs, metric, search

import oracle

# The published generator pairs behind the 9- and 19-word orbit codes.
PAIR9 = (9, (1, 8), (2, 3))
PAIR19 = (19, (1, 5, 19), (2, 13, 15))
# A perfect difference set mod 73 (powers of 2); its translates are an S(73, 9, 2).
PDS73 = (1, 2, 4, 8, 16, 32, 37, 55, 64)

MODE_FAULT = (
    "greedy_code(mode='distance') shuffles with random.Random while witness mode "
    "streams through _greedy_fast above _FAST_ENGINE_THRESHOLD, so the two modes "
    "disagree word for word"
)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    fault: str | None = None  # a named program fault: a failed check here is expected


def strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of `count` equal slices of [lo, hi), shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(vals)
    return vals


def int_strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """Stratified integers in [lo, hi]."""
    return [min(hi, int(x)) for x in strata(rng, count, lo, hi + 1)]


def log_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    return [math.exp(x) for x in strata(rng, count, math.log(lo), math.log(hi))]


def plain(code) -> list:
    """A set-world code's words as tuples of part tuples (parts in the program's order)."""
    return [tuple(p.elements for p in w.parts) for w in code.words]


def affine_lines(p: int) -> list[tuple[int, ...]]:
    """Lines of AG(2, p), point (x, y) numbered x*p + y."""
    lines = [tuple(x * p + y for y in range(p)) for x in range(p)]
    for a in range(p):
        for b in range(p):
            lines.append(tuple(sorted(x * p + (a * x + b) % p for x in range(p))))
    return lines


def develop(base, m: int) -> list[tuple[int, ...]]:
    return [tuple(sorted((x + u) % m for x in base)) for u in range(m)]


def zero_xor_quadruples(r: int) -> list[tuple[int, ...]]:
    v = 1 << r
    return [q for q in combinations(range(v), 4) if q[0] ^ q[1] ^ q[2] ^ q[3] == 0]


class Workload:
    """Subclasses define round_units, warmup_ops, op_<kind> and check_<kind>."""

    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.check_rng = random.Random(f"check-{seed}")
        self.ops: list[Op] = []
        for r in range(rounds):
            units = self.round_units(random.Random(f"{type(self).__name__}-{seed}-{r}"))
            for unit in units:
                self.ops.extend(unit)
        self.warmup: list[Op] = self.warmup_ops()

    def round_units(self, rng: random.Random) -> list[list[Op]]:
        """The round's operations, grouped into units that must run back to back."""
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        return getattr(self, "op_" + op.kind)(*op.args)

    def check(self, op: Op, out) -> bool:
        return bool(getattr(self, "check_" + op.kind)(op.args, out))


def _shuffled(rng: random.Random, units: list[list[Op]]) -> list[list[Op]]:
    rng.shuffle(units)
    return units


# ------------------------------------------------------------------ certify

class Certify(Workload):
    """Construct and fully verify composed codes: the six README constructions
    plus seeded sub-packings of AG(19) and of the 73-point design."""

    def __init__(self, seed: int, rounds: int):
        self.ag = affine_lines(19)
        self.s73 = develop(PDS73, 73)
        if not oracle.perfect_difference_set(PDS73, 8):
            raise RuntimeError("PDS73 is not a perfect difference set")
        self.bases = {
            "ag": self._verified_orbit(PAIR19),
            "pds": self._verified_orbit(PAIR9),
        }
        four = [core.canonicalize(p, 4) for p in (([0, 1], [2, 3]), ([0, 2], [1, 3]), ([0, 3], [1, 2]))]
        self.base4 = core.Code(4, 2, 2, 0, 2, frozenset(four))
        search.verify_code(self.base4)
        super().__init__(seed, rounds)

    @staticmethod
    def _verified_orbit(spec):
        code = cyclic.orbit_code(cyclic.CyclicGeneratorPair(*spec))
        search.verify_code(code)
        return code

    def round_units(self, rng):
        units = [
            [Op("orbit", PAIR9)],
            [Op("orbit", PAIR19)],
            [Op("multi_orbit", (17, (((0, 7), (2, 6)), ((0, 11), (7, 8))), 3))],
            [Op("quadruples", ())],
            [Op("difference_set", ())],
            [Op("plane", ())],
        ]
        # the 73-point design: 90 to 657 words, all on the pure-Python verify path
        for b in int_strata(rng, 30, 10, 73):
            units.append([Op("sub", ("pds", tuple(sorted(rng.sample(range(73), b)))))])
        # AG(19): 190 to ~2900 words; above 2450 words verify_code switches to numpy
        for b in log_strata(rng, 70, 10, 155):
            units.append([Op("sub", ("ag", tuple(sorted(rng.sample(range(380), int(b))))))])
        return _shuffled(rng, units)

    def warmup_ops(self):
        rng = random.Random(f"warmup-{self.seed}")
        return [
            Op("orbit", PAIR9),
            Op("quadruples", ()),
            Op("sub", ("pds", tuple(sorted(rng.sample(range(73), 12))))),
            Op("sub", ("ag", tuple(sorted(rng.sample(range(380), 12))))),
        ]

    @staticmethod
    def _certify(code, k, d):
        return code, search.verify_code(code), bounds.upper_bound(code.n, k, d), bounds.known_value(code.n, k, d)

    def op_orbit(self, m, s_set, t_set):
        code = cyclic.orbit_code(cyclic.CyclicGeneratorPair(m, s_set, t_set))
        return self._certify(code, len(s_set), 2 * len(s_set) - 1)

    def op_multi_orbit(self, m, generators, d):
        code = cyclic.multi_orbit_code(m, [list(map(list, g)) for g in generators], d)
        return code, code.verified_min_distance, bounds.upper_bound(m, 2, d), bounds.known_value(m, 2, d)

    def op_quadruples(self):
        code = designs.compose_code(designs.zero_sum_quadruples(3), self.base4, 2, 2)
        return self._certify(code, 2, 2)

    def op_difference_set(self):
        base = designs.planar_difference_set(8)
        design = designs.develop_difference_set(base, 73)
        code = designs.compose_code(design, self.bases["pds"], 2, 3)
        return (base, *self._certify(code, 2, 3))

    def op_plane(self):
        code = designs.compose_code(designs.affine_plane(19), self.bases["ag"], 3, 5)
        return self._certify(code, 3, 5)

    def op_sub(self, which, picks):
        blocks = self.ag if which == "ag" else self.s73
        v, k, d = (361, 3, 5) if which == "ag" else (73, 2, 3)
        design = designs.BlockDesign(v, 2, tuple(blocks[i] for i in picks))
        code = designs.compose_code(design, self.bases[which], k, d)
        return code, search.verify_code(code)

    def _meets(self, out, k, d, blocks, base_size) -> bool:
        code, vmd, ub, known = out
        words = plain(code)
        ok, exact = oracle.composed_ok(words, blocks, k, d, base_size, code.n, self.check_rng)
        floor = math.floor(oracle.pair_bound(code.n, k, d))
        return (
            ok
            and vmd == exact
            and len(words) == floor == ub.floor_value
            and ub.exact_value == oracle.pair_bound(code.n, k, d)
            and known is not None
            and known.exact_value == len(words)
            and oracle.known_ok(code.n, k, d, known.exact_value)
        )

    def check_orbit(self, args, out):
        m, s_set, _ = args
        k = len(s_set)
        return self._meets(out, k, 2 * k - 1, [tuple(range(m))], m)

    def check_multi_orbit(self, args, out):
        return self._meets(out, 2, args[2], [tuple(range(args[0]))], 2 * args[0])

    def check_quadruples(self, args, out):
        return self._meets(out, 2, 2, zero_xor_quadruples(3), 3)

    def check_difference_set(self, args, out):
        base, *rest = out
        return oracle.perfect_difference_set(base, 8) and self._meets(tuple(rest), 2, 3, develop(base, 73), 9)

    def check_plane(self, args, out):
        return self._meets(out, 3, 5, self.ag, 19)

    def check_sub(self, args, out):
        which, picks = args
        code, vmd = out
        blocks = self.ag if which == "ag" else self.s73
        k, d, size = (3, 5, 19) if which == "ag" else (2, 3, 9)
        words = plain(code)
        ok, exact = oracle.composed_ok(words, [blocks[i] for i in picks], k, d, size, code.n, self.check_rng)
        exact_ok = vmd == exact if exact >= 0 else vmd >= d
        return ok and exact_ok and len(words) == size * len(picks)


# ------------------------------------------------------------------ greedy

class Greedy(Workload):
    """Seeded maximal greedy_code runs on every engine."""

    def round_units(self, rng):
        seed = lambda: rng.randrange(2**31)  # noqa: E731
        units = []
        # _greedy_fast: in-memory shuffle below 4M ordered words (n <= 65), Feistel stream
        # above.  A fixed grid of n: the in-memory shuffle sets peak RSS, which must not
        # depend on which n a seed draws.
        for n in range(36, 72, 5):
            units.append([Op("greedy", (n, 2, 3, seed(), 2, 0, "auto"))])
        # sequential witness path, each followed by distance mode on the same seed
        for n, k, d in [(n, 2, 3) for n in range(9, 18)] * 3 + [(n, 3, 4) for n in range(9, 12)] * 3:
            s = seed()
            units.append([Op("greedy", (n, k, d, s, 2, 0, "witness")), Op("same_as_witness", (n, k, d, s))])
        # above _FAST_ENGINE_THRESHOLD the modes part ways (fixed inputs, fails every run)
        units.append(
            [Op("greedy", (35, 2, 4, 5, 2, 0, "witness")), Op("same_as_witness", (35, 2, 4, 5), MODE_FAULT)]
        )
        # s=3 tuples and q=3 words: each n takes the same (k, d) list, so the mix is the
        # same every run
        for n in range(7, 11):
            units += [[Op("greedy", (n, 2, d, seed(), 3, 0, "auto"))] for d in (3, 4) * 4]
        for n in range(6, 13):
            units += [[Op("greedy", (n, k, d, seed(), 1, 3, "auto"))] for k, d in ((2, 2), (2, 3), (3, 3 + n % 3)) * 2]
        # one order for every seed: heap reuse after earlier operations moves peak RSS
        return _shuffled(random.Random("greedy-order"), units)

    def warmup_ops(self):
        return [
            Op("greedy", (36, 2, 3, 1, 2, 0, "auto")),
            Op("greedy", (9, 2, 3, 1, 2, 0, "witness")),
            Op("same_as_witness", (9, 2, 3, 1)),
            Op("greedy", (7, 2, 3, 1, 3, 0, "auto")),
            Op("greedy", (6, 2, 3, 1, 1, 3, "auto")),
        ]

    def op_greedy(self, n, k, d, seed, s, q, mode):
        if q:
            return search.greedy_code(n, k, d, seed, q=q)
        if s != 2:
            return search.greedy_code(n, k, d, seed, s=s)
        return search.greedy_code(n, k, d, seed, mode=mode)

    def op_same_as_witness(self, n, k, d, seed):
        return search.greedy_code(n, k, d, seed, mode="distance")

    def check_greedy(self, args, out):
        n, k, d, _, s, q, _ = args
        words = [w.symbols for w in out.words] if q else plain(out)
        self.previous = set(words)
        ok = oracle.greedy_output_ok(words, n, k, d, self.check_rng, s=s, q=q)
        if not q and s == 2:
            ok = ok and len(words) <= oracle.pair_bound(n, k, d)
        return ok

    def check_same_as_witness(self, args, out):
        n, k, d, _ = args
        words = plain(out)
        # an invalid distance-mode output is a fault of its own, never the named one
        if not oracle.greedy_output_ok(words, n, k, d, self.check_rng):
            raise ValueError(f"distance-mode greedy_code{args} is not a maximal code")
        # the witness-mode output just before it was checked in full
        return set(words) == self.previous


# ------------------------------------------------------------------ search

# (n, d) for exact_max_code at k=2: some exhaust inside the budget, some never do
EXACT_PARAMS = ((7, 2), (7, 3), (8, 3), (9, 2), (9, 3), (10, 3), (11, 3))


class Search(Workload):
    """Exhaustive and node-budgeted tree searches (no numpy, no verify kernel)."""

    def __init__(self, seed: int, rounds: int):
        self.optima = oracle.load_optima()
        self.pairs19 = None  # brute-force list, computed at the first check that needs it
        super().__init__(seed, rounds)

    def round_units(self, rng):
        units = [[Op("antagonistic", (3, 19, None))]]
        units += [[Op("antagonistic", (3, m, None))] for m in range(13, 19)]
        units += [[Op("difference_set", (q,))] for q in range(2, 10)]
        # node rates differ between trees, so every tree gets the same spread of budgets
        for m in range(20, 29):
            units += [[Op("antagonistic", (3, m, int(b)))] for b in strata(rng, 3, 500, 5000)]
        units += [[Op("antagonistic", (4, 33, int(b)))] for b in strata(rng, 30, 1000, 8000)]
        for n, d in EXACT_PARAMS:
            units += [[Op("exact", (n, 2, d, int(b)))] for b in strata(rng, 4, 1000, 20000)]
        return _shuffled(rng, units)

    def warmup_ops(self):
        return [
            Op("antagonistic", (3, 19, None)),
            Op("antagonistic", (4, 33, 1000)),
            Op("difference_set", (7,)),
            Op("exact", (8, 2, 3, 2000)),
        ]

    def op_antagonistic(self, k, m, budget):
        return cyclic.search_antagonistic(k, m, node_budget=budget)

    def op_difference_set(self, q):
        return designs.planar_difference_set(q)

    def op_exact(self, n, k, d, budget):
        return search.exact_max_code(n, k, d, node_budget=budget)

    def check_antagonistic(self, args, out):
        k, m, budget = args
        keys = [(p.s_set, p.t_set) for p in out.pairs]
        if keys != sorted(set(keys)):
            return False
        for s_set, t_set in keys:
            if len(s_set) != k or not oracle.antagonistic(m, s_set, t_set):
                return False
            if oracle.canonical_pair(m, s_set, t_set) != (s_set, t_set):
                return False
        if budget is None:
            ok = out.exhausted and not out.frontier
        else:
            ok = (out.exhausted and out.nodes <= budget) or (not out.exhausted and out.nodes == budget)
        # an orbit of m words at distance 2k-1 cannot beat the bound
        if m > oracle.pair_bound(m, k, 2 * k - 1):
            ok = ok and not keys
        if (m, k) == (19, 3) and budget is None:
            if self.pairs19 is None:
                self.pairs19 = oracle.antagonistic_pairs(3, 19)
            ok = ok and oracle.canonical_pair(*PAIR19) in keys and keys == self.pairs19
        return ok

    def check_difference_set(self, args, out):
        (q,) = args
        if q == 6:  # Bruck-Ryser: no projective plane of order 6
            return out is None
        return out is not None and oracle.perfect_difference_set(out, q)

    def check_exact(self, args, out):
        n, k, d, budget = args
        words = plain(out.best_code)
        valid = bool(words) and len(set(words)) == len(words) and oracle.min_distance(words) >= d
        ceiling = oracle.exact_optimum(n, k, d, self.optima)
        if out.optimal:
            return valid and out.nodes_explored <= budget and len(words) == ceiling
        return valid and out.node_budget_hit and out.nodes_explored == budget + 1 and len(words) <= ceiling


# ------------------------------------------------------------------ queries

# C01's four metric families, in equal shares as C01 draws them, and the metric each one calls
FAMILIES = {"pair": "pair_distance", "tuple": "tuple_distance", "qary": "qary_distance",
            "qary_pair": "qary_pair_distance"}
BOUND_CALLS = ("upper_bound", "known_value", "asymptotic_constant")
# the README's small-query command lines: dist, bound --d, bound --t, known
CLI_KINDS = ("dist", "bound", "packing", "known")
POOL = 700  # inputs per kind; requests draw from these pools
MAX_TRIPLES = 32  # a request holds 1 to MAX_TRIPLES triples, each length equally often
REQUESTS = MAX_TRIPLES * 200  # requests per round
CLI_EVERY = 25  # one CLI call per CLI_EVERY requests


def _raw_parts(rng, n, k, s):
    elems = rng.sample(range(n), s * k)
    return [elems[i * k : (i + 1) * k] for i in range(s)]  # unsorted, as C01 passes them


def _raw_symbols(rng, n, k, q, positions=None):
    word = [0] * n
    for pos in positions if positions is not None else rng.sample(range(n), k):
        word[pos] = rng.randint(1, q - 1)
    return tuple(word)


def _fmt(parts) -> str:
    return "|".join(",".join(map(str, p)) for p in parts)


class Queries(Workload):
    """A seeded stream of small calls: requests of C01 triples, each request with one
    conflict, one antagonism and one bound query, plus in-process ``ekcodes`` CLI calls
    with json output in the README's shapes."""

    def __init__(self, seed: int, rounds: int):
        rng = random.Random(f"pool-{seed}")
        kinds = (*FAMILIES, "conflict", "antagonism", "bound", "packing")
        self.pool = {kind: [getattr(self, "_gen_" + kind)(rng) for _ in range(POOL)] for kind in kinds}
        self.cli_pool = {kind: [self._gen_cli(kind, i) for i in range(POOL)] for kind in CLI_KINDS}
        self.expected: dict = {}
        super().__init__(seed, rounds)

    # --- input generators (plain data only); the four families use C01's ranges
    def _gen_pair(self, rng):
        n = rng.randint(4, 20)
        k = rng.randint(1, min(4, n // 2))
        return n, [_raw_parts(rng, n, k, 2) for _ in range(3)]

    def _gen_tuple(self, rng):
        s = rng.randint(2, 4)
        k = rng.randint(1, 4)
        n = rng.randint(s * k, 20)
        return n, [_raw_parts(rng, n, k, s) for _ in range(3)]

    def _gen_qary(self, rng):
        n = rng.randint(2, 20)
        k, q = rng.randint(1, n), rng.randint(2, 4)
        return n, q, [_raw_symbols(rng, n, k, q) for _ in range(3)]

    def _gen_qary_pair(self, rng):
        n = rng.randint(2, 20)
        k, q = rng.randint(1, n // 2), rng.randint(2, 4)

        def word():
            pos = rng.sample(range(n), 2 * k)
            return _raw_symbols(rng, n, k, q, pos[:k]), _raw_symbols(rng, n, k, q, pos[k:])

        return n, q, [word() for _ in range(3)]

    def _gen_conflict(self, rng):
        k = rng.randint(2, 3)
        n = rng.randint(2 * k, 16)
        return n, rng.randint(2, 2 * k), _raw_parts(rng, n, k, 2), _raw_parts(rng, n, k, 2)

    def _gen_antagonism(self, rng):
        if rng.random() < 0.25:  # a published pair, rotated and possibly reflected
            m, s_set, t_set = rng.choice((PAIR9, PAIR19))
            shift, sign = rng.randrange(m), rng.choice((1, -1))
            move = lambda xs: tuple((sign * x + shift) % m for x in xs)  # noqa: E731
            return m, move(s_set), move(t_set)
        k = rng.randint(2, 3)
        m = rng.randint(2 * k + 1, 40)
        pts = rng.sample(range(m), 2 * k)
        return m, tuple(pts[:k]), tuple(pts[k:])

    def _gen_bound(self, rng):
        k = rng.randint(1, 4)
        return rng.randint(2 * k, 400), k, rng.randint(1, 2 * k)

    def _gen_packing(self, rng):
        k = rng.randint(2, 6)
        return rng.randint(k, 400), k, rng.randint(1, k)

    def _gen_cli(self, kind, index):
        if kind == "dist":
            n, (a, b, _) = self.pool["pair"][index]
            return ["dist", "--n", str(n), "--k", str(len(a[0])), "--a", _fmt(a), "--b", _fmt(b)]
        n, k, x = self.pool["packing" if kind == "packing" else "bound"][index]
        flag = "--t" if kind == "packing" else "--d"
        return ["known" if kind == "known" else "bound", "--n", str(n), "--k", str(k), flag, str(x)]

    def round_units(self, rng):
        # every request length equally often, and the families in exactly equal shares
        lengths = [t for t in range(1, MAX_TRIPLES + 1) for _ in range(REQUESTS // MAX_TRIPLES)]
        families = [name for _ in range(sum(lengths) // len(FAMILIES)) for name in FAMILIES]
        rng.shuffle(families)
        units, at = [], 0
        for i, length in enumerate(lengths):
            triples = tuple((name, rng.randrange(POOL)) for name in families[at : at + length])
            at += length
            bound = (BOUND_CALLS[i % len(BOUND_CALLS)], rng.randrange(POOL))
            units.append([Op("request", (triples, rng.randrange(POOL), rng.randrange(POOL), bound))])
        for i in range(REQUESTS // CLI_EVERY):
            units.append([Op("cli", (CLI_KINDS[i % len(CLI_KINDS)], rng.randrange(POOL)))])
        return _shuffled(rng, units)

    def warmup_ops(self):
        triples = tuple((name, 0) for name in FAMILIES)
        return [Op("request", (triples, 0, 0, (name, 0))) for name in BOUND_CALLS] + [
            Op("cli", (kind, 0)) for kind in CLI_KINDS
        ]

    # --- operations
    def op_request(self, triples, conflict, antagonism, bound):
        return (
            [self._axiom_calls(name, index) for name, index in triples],
            self._ask_conflict(*self.pool["conflict"][conflict]),
            self._ask_antagonism(*self.pool["antagonism"][antagonism]),
            self._ask_bound(bound[0], *self.pool["bound"][bound[1]]),
        )

    def _axiom_calls(self, family, index):
        """C01's unit of work: build three words from raw inputs, then make the six
        metric calls and the one comparison of C01's axiom check."""
        *head, raws = self.pool[family][index]
        x, y, z = (getattr(self, "_word_" + family)(*head, raw) for raw in raws)
        dist = getattr(metric, FAMILIES[family])
        return dist(x, y), dist(y, x), dist(x, y), dist(x, z), dist(x, y), dist(y, z), x == y

    def _word_pair(self, n, raw):
        return core.canonicalize(raw, n)

    _word_tuple = _word_pair

    def _word_qary(self, n, q, symbols):
        return core.QaryWord(n, q, symbols)

    def _word_qary_pair(self, n, q, pair):
        return core.QaryPairWord(core.QaryWord(n, q, pair[0]), core.QaryWord(n, q, pair[1]))

    def _ask_conflict(self, n, d, a, b):
        return metric.words_conflict(core.canonicalize(a, n), core.canonicalize(b, n), d)

    def _ask_antagonism(self, m, s_set, t_set):
        return cyclic.is_antagonistic(cyclic.CyclicGeneratorPair(m, s_set, t_set)).ok

    def _ask_bound(self, name, n, k, d):
        if name == "asymptotic_constant":
            return bounds.asymptotic_constant("pair", k=k, d=d)
        return getattr(bounds, name)(n, k, d)

    def op_cli(self, kind, index):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(self.cli_pool[kind][index] + ["--format", "json"])
        return status, buf.getvalue()

    # --- checks
    def _truth(self, family, index):
        key = (family, index)
        if key not in self.expected:
            *_, (x, y, z) = self.pool[family][index]
            dist = oracle.hamming if family == "qary" else (
                oracle.qary_pair_distance if family == "qary_pair" else oracle.word_distance)
            self.expected[key] = dist(x, y), dist(x, z), dist(y, z)
        return self.expected[key]

    def _bound_ok(self, name, n, k, d, got) -> bool:
        if name == "upper_bound":
            bound = oracle.pair_bound(n, k, d)
            return got.exact_value == bound and got.floor_value == math.floor(bound)
        if name == "known_value":
            return oracle.known_ok(n, k, d, None if got is None else got.exact_value)
        return got == oracle.pair_limit(k, d)

    def check_request(self, args, out):
        triples, conflict, antagonism, (bound_name, bound_index) = args
        dists, conflicts, antagonistic, bound = out
        for (family, index), got in zip(triples, dists, strict=True):
            xy, xz, yz = self._truth(family, index)
            if got != (xy, xy, xy, xz, xy, yz, xy == 0):
                return False
        n, d, a, b = self.pool["conflict"][conflict]
        return (
            conflicts == (oracle.word_distance(a, b) <= d - 1)
            and antagonistic == oracle.antagonistic(*self.pool["antagonism"][antagonism])
            and self._bound_ok(bound_name, *self.pool["bound"][bound_index], bound)
        )

    def check_cli(self, args, out):
        kind, index = args
        status, text = out
        got = json.loads(text)
        if status != 0:
            return False
        if kind == "dist":
            _, (a, b, _) = self.pool["pair"][index]
            return got == {"distance": oracle.word_distance(a, b)}
        n, k, x = self.pool["packing" if kind == "packing" else "bound"][index]
        if kind == "known":
            return oracle.known_ok(n, k, x, Fraction(got["exact"]) if got["known"] else None)
        bound = oracle.packing_bound(n, k, x) if kind == "packing" else oracle.pair_bound(n, k, x)
        return Fraction(got["exact"]) == bound and got["floor"] == math.floor(bound)


WORKLOADS = {"certify": Certify, "greedy": Greedy, "search": Search, "queries": Queries}
