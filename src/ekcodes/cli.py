"""Command-line entry point.

One executable exposes every operation; outputs are byte-identical across
identical invocations in json/csv modes.  Each command, and each action of
`antagonistic` and `design`, declares exactly the flags it reads; flags
follow the action.  Exit codes: 0 success, 1 invalid input or parameters
(a missing or unknown flag included), 2 a verification failed, 3 a search
exhausted or ran out of budget without a find/optimum.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import known_value, packing_bound, upper_bound, upper_bound_split
from .core import (
    ParameterError,
    QaryPairWord,
    QaryWord,
    canonicalize,
    load_code,
    save_code,
)
from .cyclic import (
    CyclicGeneratorPair,
    is_antagonistic,
    multi_orbit_code,
    orbit_code,
    search_antagonistic,
)
from .designs import (
    affine_plane,
    compose_code,
    develop_difference_set,
    greedy_packing,
    load_design,
    planar_difference_set,
    save_design,
    verify_design,
    zero_sum_quadruples,
)
from .metric import pair_distance, qary_distance, qary_pair_distance, tuple_distance
from .search import _DEFAULT_WORD_CEILING, exact_max_code, greedy_code, ratio_experiment, verify_code

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_NO_FIND = 3

_RATIO_COLUMNS = [
    "n",
    "greedy_size",
    "upper_bound_floor",
    "ratio_to_bound",
    "normalized_ratio",
    "limit_constant",
]


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (2 is reserved)."""

    def error(self, message: str):  # noqa: D102
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _parse_elements(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ParameterError(f"bad element list {text!r}") from exc


def _parse_parts(text: str) -> list[list[int]]:
    return [_parse_elements(part) for part in text.split("|")]


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_ready(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _emit(
    result: dict | list[dict],
    fmt: str,
    seed: int | None = None,
    columns: list[str] | None = None,
) -> None:
    rows = result if isinstance(result, list) else [result]
    if fmt == "json":
        payload = _json_ready(result)
        print(json.dumps(payload, separators=(",", ":")))
        if seed is not None:
            print(f"seed: {seed}", file=sys.stderr)
        return
    if fmt == "csv":
        header = columns if columns is not None else (list(rows[0]) if rows else None)
        if header is not None:
            print(",".join(header))
            for row in rows:
                print(",".join(_format_value(row[key]) for key in header))
        if seed is not None:
            print(f"seed: {seed}", file=sys.stderr)
        return
    if seed is not None:
        print(f"seed: {seed}")
    for row in rows:
        for key, value in row.items():
            print(f"{key}: {_format_value(value)}")


def _cmd_dist(args) -> int:
    parts_a = _parse_parts(args.a)
    parts_b = _parse_parts(args.b)
    if args.q:
        if len(parts_a) != len(parts_b) or len(parts_a) > 2:
            raise ParameterError(
                f"q-ary words need the same number of rows, 1 or 2; got {len(parts_a)} and {len(parts_b)}"
            )
        x, y = ([QaryWord(args.n, args.q, tuple(row)) for row in parts] for parts in (parts_a, parts_b))
        dist = qary_distance(x[0], y[0]) if len(x) == 1 else qary_pair_distance(QaryPairWord(*x), QaryPairWord(*y))
    else:
        x = canonicalize(parts_a, args.n, args.k)
        y = canonicalize(parts_b, args.n, args.k)
        dist = pair_distance(x, y) if x.s == 2 else tuple_distance(x, y)
    _emit({"distance": dist}, args.format)
    return EXIT_OK


def _emit_verified(code, args, *, shape: bool = False) -> int:
    """Write `code` to --out if asked, then report its verified minimum distance against its claim.

    `shape` adds the code's s and q to the report, as `verify` prints them.
    """
    if args.out:
        save_code(code, args.out)
    minimum = code.verified_min_distance
    ok = minimum >= code.d
    _emit(
        {
            "n": code.n,
            "k": code.k,
            **({"s": code.s, "q": code.q} if shape else {}),
            "claimed_d": code.d,
            "size": len(code),
            "min_distance": "inf" if math.isinf(minimum) else minimum,
            "meets_claim": ok,
        },
        args.format,
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    code = load_code(args.file)
    verify_code(code)
    return _emit_verified(code, args, shape=True)


def _cmd_bound(args) -> int:
    if args.t is not None:
        if (args.d, args.u, args.v) != (None, None, None):
            raise ParameterError("--t selects the packing bound, which takes no --d, --u or --v")
        report = packing_bound(args.n, args.k, args.t)
    elif args.u is not None or args.v is not None:
        if args.u is None or args.v is None:
            raise ParameterError("--u and --v must be given together")
        report = upper_bound_split(args.n, args.k, args.d, args.u, args.v)
    else:
        if args.d is None:
            raise ParameterError("--d is required unless --t selects the packing bound")
        report = upper_bound(args.n, args.k, args.d)
    split = report.realizing_split
    _emit(
        {
            "exact": report.exact_value,
            "floor": report.floor_value,
            "kind": report.kind,
            "realizing_split": "none" if split is None else f"{split[0]},{split[1]}",
        },
        args.format,
    )
    return EXIT_OK


def _cmd_known(args) -> int:
    report = known_value(args.n, args.k, args.d)
    _emit(
        {"known": False}
        if report is None
        else {"known": True, "exact": report.exact_value, "floor": report.floor_value, "kind": report.kind},
        args.format,
    )
    return EXIT_OK


def _generator_pair(args) -> CyclicGeneratorPair:
    return CyclicGeneratorPair(args.m, tuple(_parse_elements(args.s)), tuple(_parse_elements(args.t)))


def _cmd_check(args) -> int:
    pair = _generator_pair(args)
    report = is_antagonistic(pair)
    _emit(
        {
            "m": args.m,
            "k": pair.k,
            "antagonistic": report.ok,
            "condition": report.condition or "none",
            "detail": report.detail or "none",
        },
        args.format,
    )
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_search(args) -> int:
    result = search_antagonistic(
        args.k,
        args.m,
        limit=args.limit,
        node_budget=args.node_budget,
        wall_budget_s=args.budget_seconds,
        checkpoint=args.checkpoint,
    )
    rows = [{"m": args.m, "S": ",".join(map(str, p.s_set)), "T": ",".join(map(str, p.t_set))} for p in result.pairs]
    summary = {
        "found": len(result.pairs),
        "exhausted": result.exhausted,
        "nodes": result.nodes,
        "frontier": len(result.frontier),
    }
    if args.format == "csv":
        _emit(rows, "csv", columns=["m", "S", "T"])
        print(
            f"found: {summary['found']} exhausted: {summary['exhausted']} nodes: {summary['nodes']}",
            file=sys.stderr,
        )
    else:
        _emit(rows + [summary], args.format)
    return EXIT_OK if result.pairs else EXIT_NO_FIND


def _cmd_orbit(args) -> int:
    code = orbit_code(_generator_pair(args))
    if args.out:
        save_code(code, args.out)
    _emit({"n": code.n, "k": code.k, "claimed_d": code.d, "size": len(code)}, args.format)
    return EXIT_OK


def _cmd_multi_orbit(args) -> int:
    generators = [_parse_parts(g) for g in args.generator]
    return _emit_verified(multi_orbit_code(args.m, generators, args.d), args)


def _emit_design(design, args, seed: int | None = None) -> int:
    if args.out:
        save_design(design, args.out)
    _emit({"v": design.v, "t": design.t, "blocks": len(design.blocks)}, args.format, seed=seed)
    return EXIT_OK


def _cmd_pds(args) -> int:
    found = planar_difference_set(args.q)
    if found is None:
        _emit({"q": args.q, "found": False}, args.format)
        return EXIT_NO_FIND
    m = args.q * args.q + args.q + 1
    report = {"q": args.q, "found": True, "set": ",".join(map(str, found)), "m": m}
    if args.develop:
        design = develop_difference_set(found, m)
        if args.out:
            save_design(design, args.out)
        report["blocks"] = len(design.blocks)
    _emit(report, args.format)
    return EXIT_OK


def _cmd_design_verify(args) -> int:
    design = load_design(args.file)
    verdict = verify_design(design)
    _emit(
        {
            "v": design.v,
            "t": design.t,
            "blocks": len(design.blocks),
            "label": verdict.label,
            "violation": "none" if verdict.violation is None else ",".join(map(str, verdict.violation)),
        },
        args.format,
    )
    return EXIT_OK if verdict.label != "invalid" else EXIT_VERIFY_FAILED


def _cmd_compose(args) -> int:
    design = load_design(args.design)
    bases = {}
    for path in args.base:
        code = load_code(path)
        if code.n in bases:
            raise ParameterError(f"--base {path} repeats a base code on {code.n} points")
        verify_code(code)  # a distance stored in the file is a claim, not a certificate
        bases[code.n] = code
    composed = compose_code(design, bases, args.k, args.d)
    verify_code(composed)
    return _emit_verified(composed, args)


def _cmd_greedy(args) -> int:
    code = greedy_code(args.n, args.k, args.d, args.seed, s=args.s, q=args.q)
    if args.out:
        save_code(code, args.out)
    _emit(
        {"n": args.n, "k": args.k, "d": args.d, "s": code.s, "q": args.q, "size": len(code)},
        args.format,
        seed=args.seed,
    )
    return EXIT_OK


def _cmd_exact(args) -> int:
    report = exact_max_code(
        args.n,
        args.k,
        args.d,
        word_ceiling=args.word_ceiling,
        node_budget=args.node_budget,
        wall_budget_s=args.budget_seconds,
    )
    if args.out:
        save_code(report.best_code, args.out)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "d": args.d,
            "best_size": len(report.best_code),
            "optimal": report.optimal,
            "nodes": report.nodes_explored,
        },
        args.format,
    )
    return EXIT_OK if report.optimal else EXIT_NO_FIND


def _cmd_ratio(args) -> int:
    rows = ratio_experiment(args.k, args.d, _parse_elements(args.n_list), args.seed, repetitions=args.repetitions)
    ordered = [{key: row[key] for key in _RATIO_COLUMNS} for row in rows]
    _emit(ordered, args.format, seed=args.seed, columns=_RATIO_COLUMNS)
    return EXIT_OK


def _flag_parser(*flags: str, **options) -> _Parser:
    """A parent parser holding `flags`, each added with the same `options`."""
    parent = _Parser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **options)
    return parent


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process and reused by in-process calls.

    Each command, and each action of `antagonistic` and `design`, is a leaf
    parser that declares exactly the flags its handler reads and binds that
    handler as `run`.  Shared flags come from parent parsers attached to the
    leaves only: a leaf's defaults overwrite whatever its enclosing parser
    parsed, so a flag given before the action would be silently lost.
    """
    fmt = _flag_parser("--format", choices=("text", "json", "csv"), default="text")
    n = _flag_parser("--n", type=int, required=True)
    kd = _flag_parser("--k", "--d", type=int, required=True)
    m = _flag_parser("--m", type=int, required=True, help="modulus")
    st = _flag_parser("--s", "--t", required=True, help="residues of S or T, e.g. 1,8")
    out = _flag_parser("--out", type=Path, default=None, help="write the produced artifact here")
    seed = _flag_parser("--seed", type=int, default=0, help="seed of the randomized construction (default 0)")
    budget = _flag_parser("--budget-seconds", type=float, default=None, help="wall-clock budget")

    parser = _Parser(prog="ekcodes", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name: str, run, summary: str, *parents: _Parser) -> _Parser:
        p = group.add_parser(name, parents=[fmt, *parents], help=summary)
        p.set_defaults(run=run)
        return p

    p = leaf(commands, "dist", _cmd_dist, "distance between two words", n)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--a", required=True, help='word, e.g. "1,8|2,3"')
    p.add_argument("--b", required=True)

    p = leaf(commands, "verify", _cmd_verify, "verify a code file", out)
    p.add_argument("file", type=Path)

    p = leaf(commands, "bound", _cmd_bound, "upper bounds (and packing bound via --t)", n)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--t", type=int, default=None, help="packing bound P(n, k, t) instead")

    leaf(commands, "known", _cmd_known, "known exact value, if any", n, kd)

    actions = commands.add_parser("antagonistic", help="cyclic generator pairs").add_subparsers(
        dest="action", required=True
    )
    leaf(actions, "check", _cmd_check, "is (S, T) an antagonistic pair", m, st)
    leaf(actions, "orbit", _cmd_orbit, "the orbit code of (S, T)", m, st, out)
    p = leaf(actions, "search", _cmd_search, "search for antagonistic pairs", m, budget)
    p.add_argument("--k", type=int, required=True, help="set size")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = leaf(commands, "multi-orbit", _cmd_multi_orbit, "union of cyclic orbits, fully verified", m, out)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--generator", action="append", required=True, help='word, e.g. "0,7|2,6" (repeatable)')

    actions = commands.add_parser("design", help="block designs and packings").add_subparsers(
        dest="action", required=True
    )
    p = leaf(actions, "affine", lambda a: _emit_design(affine_plane(a.p), a), "affine plane of prime order", out)
    p.add_argument("--p", type=int, required=True, help="prime order")
    p = leaf(actions, "sqs", lambda a: _emit_design(zero_sum_quadruples(a.r), a), "zero-sum quadruple system", out)
    p.add_argument("--r", type=int, required=True, help="dimension")
    p = leaf(actions, "pds", _cmd_pds, "planar difference set", out)
    p.add_argument("--q", type=int, required=True, help="plane order")
    p.add_argument("--develop", action="store_true", help="develop the found difference set")
    p = leaf(
        actions,
        "develop",
        lambda a: _emit_design(develop_difference_set(_parse_elements(a.set), a.m), a),
        "develop a difference set",
        m,
        out,
    )
    p.add_argument("--set", required=True, help="difference set residues")
    p = leaf(
        actions,
        "greedy-pack",
        lambda a: _emit_design(greedy_packing(a.v, a.p, a.t, a.seed), a, seed=a.seed),
        "seeded greedy packing",
        out,
        seed,
    )
    p.add_argument("--v", type=int, required=True, help="point count")
    p.add_argument("--p", type=int, required=True, help="block size")
    p.add_argument("--t", type=int, required=True, help="strength")
    p = leaf(actions, "verify", _cmd_design_verify, "verify a design file")
    p.add_argument("file", type=Path)

    p = leaf(commands, "compose", _cmd_compose, "compose base codes over a packing", kd, out)
    p.add_argument("--design", type=Path, required=True)
    p.add_argument("--base", action="append", required=True, type=Path, help="base code file (repeatable)")

    p = leaf(commands, "greedy", _cmd_greedy, "seeded randomized greedy code", n, kd, out, seed)
    p.add_argument("--s", type=int, default=None, help="parts per word (default 2; q-ary default 1)")
    p.add_argument("--q", type=int, default=0)

    p = leaf(commands, "exact", _cmd_exact, "exact maximum code (branch and bound)", n, kd, out, budget)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--word-ceiling", type=int, default=_DEFAULT_WORD_CEILING)

    p = leaf(commands, "ratio", _cmd_ratio, "greedy-vs-bound table", kd, seed)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--repetitions", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
