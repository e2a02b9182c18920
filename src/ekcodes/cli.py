"""Command-line entry point.

One executable exposes every operation; outputs are byte-identical across
identical invocations in json/csv modes.  Exit codes: 0 success, 1 invalid
input or parameters, 2 a verification failed, 3 a search exhausted or ran
out of budget without a find/optimum.
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
from .search import exact_max_code, greedy_code, ratio_experiment, verify_code

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


def _cmd_dist(args, fmt: str) -> int:
    parts_a = _parse_parts(args.a)
    parts_b = _parse_parts(args.b)
    if args.q:
        if len(parts_a) == 1:
            dist = qary_distance(
                QaryWord(args.n, args.q, tuple(parts_a[0])),
                QaryWord(args.n, args.q, tuple(parts_b[0])),
            )
        else:
            dist = qary_pair_distance(
                QaryPairWord(*(QaryWord(args.n, args.q, tuple(p)) for p in parts_a)),
                QaryPairWord(*(QaryWord(args.n, args.q, tuple(p)) for p in parts_b)),
            )
    else:
        x = canonicalize(parts_a, args.n, args.k)
        y = canonicalize(parts_b, args.n, args.k)
        dist = pair_distance(x, y) if x.s == 2 else tuple_distance(x, y)
    _emit({"distance": dist}, fmt)
    return EXIT_OK


def _cmd_verify(args, fmt: str) -> int:
    code = load_code(args.file)
    minimum = verify_code(code)
    shown = "inf" if math.isinf(minimum) else minimum
    ok = minimum >= code.d
    _emit(
        {
            "n": code.n,
            "k": code.k,
            "s": code.s,
            "q": code.q,
            "claimed_d": code.d,
            "size": len(code),
            "min_distance": shown,
            "meets_claim": ok,
        },
        fmt,
    )
    if args.out:
        save_code(code, args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_bound(args, fmt: str) -> int:
    if args.t is not None:
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
        fmt,
    )
    return EXIT_OK


def _cmd_known(args, fmt: str) -> int:
    report = known_value(args.n, args.k, args.d)
    if report is None:
        _emit({"known": False}, fmt)
        return EXIT_OK
    _emit(
        {"known": True, "exact": report.exact_value, "floor": report.floor_value, "kind": report.kind},
        fmt,
    )
    return EXIT_OK


def _cmd_antagonistic(args, fmt: str, seed: int | None) -> int:
    if args.action == "check":
        pair = CyclicGeneratorPair(args.m, tuple(_parse_elements(args.s)), tuple(_parse_elements(args.t)))
        report = is_antagonistic(pair)
        _emit(
            {
                "m": args.m,
                "k": pair.k,
                "antagonistic": report.ok,
                "condition": report.condition or "none",
                "detail": report.detail or "none",
            },
            fmt,
        )
        return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    if args.action == "search":
        result = search_antagonistic(
            args.k,
            args.m,
            limit=args.limit,
            seed=seed,
            node_budget=args.node_budget,
            wall_budget_s=args.budget_seconds,
            checkpoint=args.checkpoint,
        )
        rows = [
            {
                "m": args.m,
                "S": ",".join(map(str, p.s_set)),
                "T": ",".join(map(str, p.t_set)),
            }
            for p in result.pairs
        ]
        summary = {
            "found": len(result.pairs),
            "exhausted": result.exhausted,
            "nodes": result.nodes,
            "frontier": len(result.frontier),
        }
        if fmt == "csv":
            _emit(rows, fmt, seed=seed, columns=["m", "S", "T"])
        else:
            _emit(rows + [summary], fmt, seed=seed)
        if fmt == "csv":
            print(
                f"found: {summary['found']} exhausted: {summary['exhausted']} nodes: {summary['nodes']}",
                file=sys.stderr,
            )
        return EXIT_OK if result.pairs else EXIT_NO_FIND
    # orbit
    pair = CyclicGeneratorPair(args.m, tuple(_parse_elements(args.s)), tuple(_parse_elements(args.t)))
    code = orbit_code(pair)
    if args.out:
        save_code(code, args.out)
    _emit({"n": code.n, "k": code.k, "claimed_d": code.d, "size": len(code)}, fmt)
    return EXIT_OK


def _cmd_multi_orbit(args, fmt: str) -> int:
    generators = [_parse_parts(g) for g in args.generator]
    code = multi_orbit_code(args.m, generators, args.d)
    ok = code.verified_min_distance >= args.d
    if args.out:
        save_code(code, args.out)
    _emit(
        {
            "n": code.n,
            "k": code.k,
            "claimed_d": code.d,
            "size": len(code),
            "min_distance": code.verified_min_distance,
            "meets_claim": ok,
        },
        fmt,
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_design(args, fmt: str, seed: int | None) -> int:
    if args.action == "affine":
        design = affine_plane(args.p)
    elif args.action == "sqs":
        design = zero_sum_quadruples(args.r)
    elif args.action == "pds":
        found = planar_difference_set(args.q)
        if found is None:
            _emit({"q": args.q, "found": False}, fmt)
            return EXIT_NO_FIND
        m = args.q * args.q + args.q + 1
        if args.develop:
            design = develop_difference_set(found, m)
            if args.out:
                save_design(design, args.out)
            _emit(
                {"q": args.q, "found": True, "set": ",".join(map(str, found)), "m": m, "blocks": len(design.blocks)},
                fmt,
            )
            return EXIT_OK
        _emit({"q": args.q, "found": True, "set": ",".join(map(str, found)), "m": m}, fmt)
        return EXIT_OK
    elif args.action == "develop":
        design = develop_difference_set(_parse_elements(args.set), args.m)
    elif args.action == "greedy-pack":
        design = greedy_packing(args.v, args.p, args.t, seed if seed is not None else 0)
    else:  # verify
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
            fmt,
        )
        return EXIT_OK if verdict.label != "invalid" else EXIT_VERIFY_FAILED
    if args.out:
        save_design(design, args.out)
    payload = {"v": design.v, "t": design.t, "blocks": len(design.blocks)}
    if args.action == "greedy-pack":
        _emit(payload, fmt, seed=seed if seed is not None else 0)
    else:
        _emit(payload, fmt)
    return EXIT_OK


def _cmd_compose(args, fmt: str) -> int:
    design = load_design(args.design)
    bases = {}
    for path in args.base:
        code = load_code(path)
        if code.verified_min_distance is None:
            verify_code(code)
        bases[code.n] = code
    composed = compose_code(design, bases, args.k, args.d)
    minimum = verify_code(composed)
    ok = minimum >= args.d
    if args.out:
        save_code(composed, args.out)
    _emit(
        {
            "n": composed.n,
            "k": composed.k,
            "claimed_d": composed.d,
            "size": len(composed),
            "min_distance": "inf" if math.isinf(minimum) else minimum,
            "meets_claim": ok,
        },
        fmt,
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_greedy(args, fmt: str, seed: int) -> int:
    code = greedy_code(args.n, args.k, args.d, seed, s=args.s, q=args.q, mode=args.mode)
    if args.out:
        save_code(code, args.out)
    _emit(
        {"n": args.n, "k": args.k, "d": args.d, "s": code.s, "q": args.q, "size": len(code)},
        fmt,
        seed=seed,
    )
    return EXIT_OK


def _cmd_exact(args, fmt: str) -> int:
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
        fmt,
    )
    return EXIT_OK if report.optimal else EXIT_NO_FIND


def _cmd_ratio(args, fmt: str, seed: int) -> int:
    n_list = _parse_elements(args.n_list)
    rows = ratio_experiment(args.k, args.d, n_list, seed, repetitions=args.repetitions)
    ordered = [{key: row[key] for key in _RATIO_COLUMNS} for row in rows]
    _emit(ordered, fmt, seed=seed, columns=_RATIO_COLUMNS)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process and reused by in-process calls."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--seed", type=int, default=None, help="seed for randomized commands (default 0)")
    common.add_argument("--budget-seconds", type=float, default=None)
    common.add_argument("--out", type=Path, default=None, help="write the produced artifact here")

    parser = _Parser(prog="ekcodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common], help="distance between two words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--a", required=True, help='word, e.g. "1,8|2,3"')
    p.add_argument("--b", required=True)

    p = sub.add_parser("verify", parents=[common], help="verify a code file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("bound", parents=[common], help="upper bounds (and packing bound via --t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--t", type=int, default=None, help="packing bound P(n, k, t) instead")

    p = sub.add_parser("known", parents=[common], help="known exact value, if any")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("antagonistic", parents=[common], help="cyclic generator pairs")
    p.add_argument("action", choices=("check", "search", "orbit"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", help="residues of S, e.g. 1,8")
    p.add_argument("--t", help="residues of T, e.g. 2,3")
    p.add_argument("--k", type=int, default=None, help="set size (search)")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("multi-orbit", parents=[common], help="union of cyclic orbits, fully verified")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--generator", action="append", required=True, help='word, e.g. "0,7|2,6" (repeatable)')

    p = sub.add_parser("design", parents=[common], help="block designs and packings")
    p.add_argument("action", choices=("affine", "sqs", "pds", "develop", "greedy-pack", "verify"))
    p.add_argument("--p", type=int, default=None, help="prime order (affine) / block size (greedy-pack)")
    p.add_argument("--r", type=int, default=None, help="dimension (sqs)")
    p.add_argument("--q", type=int, default=None, help="plane order (pds)")
    p.add_argument("--develop", action="store_true", help="develop the found difference set")
    p.add_argument("--set", default=None, help="difference set residues (develop)")
    p.add_argument("--m", type=int, default=None, help="modulus (develop)")
    p.add_argument("--v", type=int, default=None, help="point count (greedy-pack)")
    p.add_argument("--t", type=int, default=None, help="strength (greedy-pack)")
    p.add_argument("file", nargs="?", type=Path, default=None, help="design file (verify)")

    p = sub.add_parser("compose", parents=[common], help="compose base codes over a packing")
    p.add_argument("--design", type=Path, required=True)
    p.add_argument("--base", action="append", required=True, type=Path, help="base code file (repeatable)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("greedy", parents=[common], help="seeded randomized greedy code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, default=None, help="parts per word (default 2; q-ary default 1)")
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--mode", choices=("auto", "witness", "distance"), default="auto")

    p = sub.add_parser("exact", parents=[common], help="exact maximum code (branch and bound)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--word-ceiling", type=int, default=5000)

    p = sub.add_parser("ratio", parents=[common], help="greedy-vs-bound table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated n values")
    p.add_argument("--repetitions", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format
    seed = args.seed
    try:
        if args.command == "dist":
            return _cmd_dist(args, fmt)
        if args.command == "verify":
            return _cmd_verify(args, fmt)
        if args.command == "bound":
            return _cmd_bound(args, fmt)
        if args.command == "known":
            return _cmd_known(args, fmt)
        if args.command == "antagonistic":
            if args.action == "search" and args.k is None:
                raise ParameterError("antagonistic search needs --k")
            if args.action in ("check", "orbit") and (args.s is None or args.t is None):
                raise ParameterError(f"antagonistic {args.action} needs --s and --t")
            return _cmd_antagonistic(args, fmt, seed)
        if args.command == "multi-orbit":
            return _cmd_multi_orbit(args, fmt)
        if args.command == "design":
            _require_design_args(args)
            return _cmd_design(args, fmt, seed)
        if args.command == "compose":
            return _cmd_compose(args, fmt)
        if args.command == "greedy":
            return _cmd_greedy(args, fmt, seed if seed is not None else 0)
        if args.command == "exact":
            return _cmd_exact(args, fmt)
        if args.command == "ratio":
            return _cmd_ratio(args, fmt, seed if seed is not None else 0)
        raise ParameterError(f"unknown command {args.command!r}")
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _require_design_args(args) -> None:
    needed = {
        "affine": ("p",),
        "sqs": ("r",),
        "pds": ("q",),
        "develop": ("set", "m"),
        "greedy-pack": ("v", "p", "t"),
        "verify": ("file",),
    }[args.action]
    for name in needed:
        if getattr(args, name) is None:
            raise ParameterError(f"design {args.action} needs --{name.replace('_', '-')}"
                                 if name != "file" else "design verify needs a file argument")


if __name__ == "__main__":
    sys.exit(main())
