"""Command-line surface for constructing, verifying and deciding colorings.

Exit codes are the machine contract: 0 success/feasible, 1 infeasible or not
constructed, 2 usage error, 3 unknown (budget exceeded, memory ran out, or an
internal check failed, so no answer was reached).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import construct, generator, oracle, verify
from .core import (
    Coloring,
    GallaiError,
    DivisionParams,
    InternalScheduleError,
    ParseError,
    PreconditionViolated,
    canonicalize,
    deserialize,
    serialize,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _parse_dist(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise PreconditionViolated(f"--dist expects a comma-separated integer list, got {raw!r}")


def _emit_coloring(c: Coloring, out: Optional[str]) -> None:
    text = serialize(c)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_coloring(path: str) -> Coloring:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not a text file ({exc})") from None
    return deserialize(text)


def _cmd_construct(args) -> int:
    d = canonicalize(_parse_dist(args.dist), args.n)
    print(f"distribution: {','.join(map(str, d.sizes))} on K_{d.n}")
    result = construct.construct_any(d)
    if isinstance(result, construct.NotConstructed):
        print(f"not constructed: {result.reason}"
              + (f" ({result.detail})" if result.detail else ""))
        return EXIT_UNKNOWN if result.reason == "unknown" else EXIT_NEGATIVE
    _emit_coloring(result, args.out)
    if args.out:
        print(f"coloring written to {args.out}")
    return EXIT_OK


def _cmd_construct_div(args) -> int:
    params = DivisionParams(n=args.n, k=args.k, p=args.p, q=args.q)
    c = construct.construct_division(params)
    _emit_coloring(c, args.out)
    if args.out:
        print(f"coloring written to {args.out}")
    return EXIT_OK


def _cmd_construct_balanced(args) -> int:
    c = construct.construct_balanced(args.n, args.k)
    _emit_coloring(c, args.out)
    if args.out:
        print(f"coloring written to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    c = _load_coloring(args.file)
    witness = verify.rainbow_witness(c)
    sizes = verify.class_sizes(c)
    ok_nec, ell = verify.check_necessary(sizes)
    print(f"gallai: {'true' if witness is None else 'false'}")
    if witness is not None:
        print(f"rainbow triangle: {witness[0]} {witness[1]} {witness[2]}")
    print(f"sizes: {','.join(map(str, sizes.sizes))}")
    print(f"necessary-condition: {'pass' if ok_nec else f'fail (l={ell})'}")
    print(f"special: {'true' if verify.is_special_coloring(c) else 'false'}")
    return EXIT_OK if witness is None else EXIT_NEGATIVE


def _cmd_check_necessary(args) -> int:
    d = canonicalize(_parse_dist(args.dist), args.n)
    print(f"distribution: {','.join(map(str, d.sizes))} on K_{d.n}")
    ok, ell = verify.check_necessary(d)
    if ok:
        print("necessary-condition: pass")
        return EXIT_OK
    print(f"necessary-condition: fail (l={ell})")
    return EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    d = canonicalize(_parse_dist(args.dist), args.n)
    print(f"distribution: {','.join(map(str, d.sizes))} on K_{d.n}")
    verdict = oracle.search_realizable(d, max_nodes=args.budget_nodes, max_ms=args.budget_ms)
    print(f"{verdict.tag} (nodes explored: {verdict.nodes_explored})")
    if verdict.is_feasible and args.out:
        assert verdict.witness is not None
        _emit_coloring(verdict.witness, args.out)
        print(f"witness written to {args.out}")
    if verdict.is_feasible:
        return EXIT_OK
    return EXIT_NEGATIVE if verdict.is_infeasible else EXIT_UNKNOWN


def _cmd_enumerate(args) -> int:
    result = oracle.enumerate_realizable(
        args.n, args.k, max_nodes=args.budget_nodes, max_ms=args.budget_ms
    )
    for d, verdict in result.verdicts:
        print(f"{','.join(map(str, d.sizes))}: {verdict.tag}")
    print(
        f"total {len(result.verdicts)}: {len(result.feasible)} feasible, "
        f"{len(result.infeasible)} infeasible, {len(result.unknown)} unknown"
    )
    return EXIT_UNKNOWN if result.unknown else EXIT_OK


def _cmd_compute_g(args) -> int:
    g = oracle.compute_g(args.k, args.n_max, max_nodes=args.budget_nodes, max_ms=args.budget_ms)
    if g is None:
        print("unknown")
        return EXIT_UNKNOWN
    print(g)
    return EXIT_OK


def _cmd_random(args) -> int:
    c, _blocks = generator.random_gallai(args.n, args.seed, args.max_colors)
    _emit_coloring(c, args.out)
    if args.out:
        print(f"coloring written to {args.out}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    c = _load_coloring(args.file)
    lines = ["graph coloring {"]
    lines.extend(f"  {u} -- {v} [color={col}];" for u, v, col in c.edges())
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=None,
                   help="node budget for the search; bounds its memory, not its time")
    p.add_argument("--budget-ms", type=int, default=None,
                   help="wall-clock budget in ms; the only bound on time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallai",
        description="Construct, verify and decide edge-count distributions of "
        "rainbow-triangle-free colorings of complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a coloring for a distribution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", type=str, required=True, help="comma-separated class sizes")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("construct-div", help="k classes of p edges plus one of q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_construct_div)

    p = sub.add_parser("construct-balanced", help="balanced k-coloring of K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_construct_balanced)

    p = sub.add_parser("verify", help="check a coloring file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-necessary", help="prefix-sum necessary condition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", type=str, required=True)
    p.set_defaults(func=_cmd_check_necessary)

    p = sub.add_parser("oracle", help="exact realizability decision for small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", type=str, required=True)
    p.add_argument("--out", type=str, default=None, help="write the witness here")
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("enumerate", help="classify every k-part distribution of K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("compute-g", help="smallest fully-realizable vertex count")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_compute_g)

    p = sub.add_parser("random", help="seeded random rainbow-free coloring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-colors", type=int, default=5)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("export-dot", help="DOT export with color edge attributes")
    p.add_argument("file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built once per process, since building it
    costs far more than a parse, and every parse fills a fresh namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalScheduleError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except MemoryError:
        # Exit 1 would claim an answer: infeasible.
        print("error: out of memory; no answer was reached", file=sys.stderr)
        return EXIT_UNKNOWN
    except (GallaiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
