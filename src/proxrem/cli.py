"""Command-line interface.

Subcommands: analyze, construct, verify, search, exhaustive-verify.
Exit codes: 0 success / all reports consistent, 1 verification
inconsistency (or unsuccessful randomized search), 2 usage or input errors.
JSON is the canonical report format; CSV is a flat convenience projection.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import List, Optional, Tuple

from . import constructions
from .bipartite import check_equality_criterion
from .digraph import Digraph, NotStrongError, is_strong, is_symmetric
from .formats import (
    parse_edge_list,
    read_digraph6,
    read_graph6,
    write_digraph6,
    write_edge_list,
)
from .metrics import CSV_HEADER, metrics_report
from .search import (
    SearchQuery,
    enumerate_class,
    exhaustive_verify,
    rediscover_sigma_equal_graph,
    search,
)
from .verifiers import CLAIMS, require_domain, resolve_theorems, verify, verify_sec5_facts


def _fail(code: int, message: str, **extra) -> int:
    payload = {"error": message, **extra}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _sniff_format(path: str, text: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".d6":
        return "digraph6"
    if ext == ".g6":
        return "graph6"
    if ext in (".el", ".edges"):
        return "edgelist"
    stripped = text.lstrip()
    if stripped.startswith("&") or stripped.startswith(">>digraph6<<"):
        return "digraph6"
    if stripped.startswith("n ") or stripped.startswith("#"):
        return "edgelist"
    return "graph6"


def _load_digraph(path: str, fmt: str, undirected: bool) -> Digraph:
    text = _read_text(path)
    if fmt == "auto":
        fmt = _sniff_format(path, text)
    if fmt == "digraph6":
        D = read_digraph6(text)
    elif fmt == "graph6":
        D = read_graph6(text)
    elif fmt == "edgelist":
        D, info = parse_edge_list(text)
        if info.duplicate_pairs:
            print(
                json.dumps({"warning": f"{info.duplicate_pairs} duplicate pairs collapsed"}),
                file=sys.stderr,
            )
    else:
        raise ValueError(f"unknown input format {fmt!r}")
    if undirected and not is_symmetric(D):
        raise ValueError("--undirected given but the input is not symmetric")
    return D


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    D = _load_digraph(args.input, args.format, args.undirected)
    if args.bipartite:
        report = check_equality_criterion(D)
        for v, dplus, mu, sigma in report.per_vertex:
            print(f"# vertex {v}: out_degree={dplus} mu={mu} sigma={sigma}")
        print(f"# constant_c={report.constant_c} good={report.good}")
        print(json.dumps(report.as_json_dict()))
    else:
        rep = metrics_report(D)
        if args.out_format == "csv":
            print(CSV_HEADER)
            print(rep.csv_row())
        else:
            print(json.dumps(rep.as_json_dict()))
    return 0


def _parse_int_list(text: str) -> Tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.replace(";", ",").split(",") if tok != "")
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _class_size(cls: str, text: str) -> Tuple[Optional[int], Optional[Tuple[int, int]]]:
    """(n, parts) from a size argument: part sizes a,b for bipartite
    tournaments, a single order for the other classes."""
    sizes = _parse_int_list(text)
    if cls == "bipartite_tournaments":
        if len(sizes) != 2:
            raise ValueError("bipartite_tournaments takes part sizes a,b")
        return None, (sizes[0], sizes[1])
    if len(sizes) != 1:
        raise ValueError(f"class {cls} takes a single order")
    return sizes[0], None


def _construct_params(args) -> Tuple[int, ...]:
    if args.params:
        return _parse_int_list(args.params)
    params: List[int] = []
    for name in ("n", "c", "t", "half"):
        value = getattr(args, name)
        if value is not None:
            params.append(value)
    if args.back_arcs:
        for pair in args.back_arcs.split(","):
            a, _, b = pair.partition(":")
            params.extend([int(a), int(b)])
    return tuple(params)


def cmd_construct(args) -> int:
    spec = constructions.ConstructionSpec(args.family, _construct_params(args))
    D = constructions.build(spec)
    if args.format == "edgelist":
        sys.stdout.write(write_edge_list(D, directed=not is_symmetric(D)))
    else:
        print(write_digraph6(D))
    if args.expect:
        failures = constructions.check_expected(spec, D)
        if failures:
            return _fail(1, "expected invariants violated", family=args.family, failures=failures)
    return 0


def _verify_instances(args, ids):
    """Yields (label, digraph) pairs from the chosen input source; an
    enumerated class keeps only its strong members when a claim in ``ids``
    needs a strong digraph."""
    if args.input:
        D = _load_digraph(args.input, args.format, False)
        yield args.input, D
    elif args.family:
        name, _, param_text = args.family.partition(":")
        spec = constructions.ConstructionSpec(name, _parse_int_list(param_text))
        yield args.family, constructions.build(spec)
    elif args.enumerate:
        cls, _, size_text = args.enumerate.partition(",")
        n, parts = _class_size(cls, size_text)
        require_domain(ids, cls)
        strong = any(CLAIMS[t].strong for t in ids)
        for D in enumerate_class(cls, n=n, parts=parts):
            # the one kernel run, memoised on D for the verifier to read back
            if not strong or is_strong(D):
                yield write_digraph6(D), D
    else:
        raise ValueError("one input source required: --input, --family or --enumerate")


def cmd_verify(args) -> int:
    theorem = args.theorem
    if theorem == "sec5-facts":
        if not args.family:
            return _fail(2, "sec5-facts needs --family hub_digraph:n,c or dicycle:n")
        name, _, param_text = args.family.partition(":")
        params = _parse_int_list(param_text)
        kind = {"hub_digraph": "hub", "hub": "hub", "dicycle": "dicycle"}.get(name)
        if kind is None or not params:
            return _fail(2, "sec5-facts families: hub_digraph:n[,c] or dicycle:n")
        rep = verify_sec5_facts(kind, params[0], params[1] if len(params) > 1 else None)
        print(json.dumps(rep.as_json_dict()))
        return 0 if rep.ok else 1
    ids = resolve_theorems([theorem])
    all_ok = True
    for label, D in _verify_instances(args, ids):
        for tid in ids:
            rep = verify(tid, D)
            obj = rep.as_json_dict()
            obj["instance"] = label
            print(json.dumps(obj))
            if not rep.ok:
                all_ok = False
                print(json.dumps({"counterexample": label, "theorem": tid}), file=sys.stderr)
    return 0 if all_ok else 1


def _default_shards(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("PROXREM_SHARDS")
    return int(env) if env else 1


def cmd_search(args) -> int:
    if args.randomized:
        if not args.degrees:
            return _fail(2, "--randomized needs --degrees")
        degrees = _parse_int_list(args.degrees)
        target = constructions.fig1_graph() if args.target_fig1 else None
        result = rediscover_sigma_equal_graph(degrees, seed=args.seed, budget=args.budget, target=target)
        print(json.dumps(result.as_json_dict()))
        return 0 if result.success else 1
    predicates = tuple(t for t in (args.pred or "").split(",") if t)
    parts = _parse_int_list(args.parts) if args.parts else None
    if parts is not None and len(parts) != 2:
        return _fail(2, "--parts takes two sizes, e.g. 3,4")
    query = SearchQuery(
        cls=args.cls,
        n=args.n,
        parts=parts,
        predicates=predicates,
        dedup=args.dedup,
        limit=args.limit,
        shards=_default_shards(args.shards),
    )
    # Query errors exit before --out opens, and --out opens before the scan.
    query.check()
    with open(args.out, "w", encoding="ascii") if args.out else nullcontext(sys.stdout) as fh:
        result = search(query)
        fh.writelines(d6 + "\n" for d6, _ in result.matches)
    print(json.dumps(result.as_json_dict()), file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_exhaustive_verify(args) -> int:
    n, parts = _class_size(args.cls, args.size)
    result = exhaustive_verify(args.theorem, args.cls, n=n, parts=parts, shards=_default_shards(args.shards))
    print(json.dumps(result.as_json_dict()))
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxrem",
        description="Exact proximity/remoteness invariants of strong digraphs "
        "and brute-force verification of their extremal characterizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute the invariant report of one digraph")
    p.add_argument("--input", required=True, help="path or - for stdin")
    p.add_argument("--format", default="auto", choices=("auto", "digraph6", "graph6", "edgelist"))
    p.add_argument("--undirected", action="store_true", help="require a symmetric input")
    p.add_argument("--bipartite", action="store_true", help="bipartite tournament analysis")
    p.add_argument("--out-format", default="json", choices=("json", "csv"))
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("construct", help="emit a named extremal family instance")
    p.add_argument("family", choices=sorted(constructions.FAMILIES))
    p.add_argument("--params", help="comma-separated integer parameters")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--half", type=int)
    p.add_argument("--back-arcs", help="extra backward arcs a:b,a:b (ham_extremal)")
    p.add_argument("--format", default="digraph6", choices=("digraph6", "edgelist"))
    p.add_argument("--expect", action="store_true", help="verify documented invariants")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="run one claim verifier, streaming JSON reports")
    p.add_argument("theorem")
    p.add_argument("--input", help="path or - for stdin")
    p.add_argument("--format", default="auto", choices=("auto", "digraph6", "graph6", "edgelist"))
    p.add_argument("--family", help="construction spec, e.g. dicycle:6 or hub_digraph:6,2")
    p.add_argument("--enumerate", help="class,size spec, e.g. tournaments,5")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="enumerate a class and filter by predicates")
    p.add_argument("--class", dest="cls", default="all_digraphs")
    p.add_argument("--n", type=int)
    p.add_argument("--parts", help="bipartite part sizes a,b")
    p.add_argument("--pred", help="comma-separated predicate names")
    p.add_argument("--dedup", default="none", choices=("none", "canonical"))
    p.add_argument("--limit", type=int)
    p.add_argument("--shards", type=int, help="worker count (default $PROXREM_SHARDS or 1)")
    p.add_argument("--out", help="write matches (one digraph6 per line) to this file")
    p.add_argument("--randomized", action="store_true", help="degree-constrained random sampling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--degrees", help="degree sequence for --randomized, e.g. 3,3,3,3,3,3,4,4,4")
    p.add_argument(
        "--target-fig1",
        action="store_true",
        help="stop only on a graph isomorphic to the order-9 equal-sigma graph",
    )
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser(
        "exhaustive-verify", help="run a claim over every strong member of a class"
    )
    p.add_argument("theorem")
    p.add_argument("cls", metavar="class")
    p.add_argument("size", help="order n, or part sizes a,b for bipartite_tournaments")
    p.add_argument("--shards", type=int)
    p.set_defaults(fn=cmd_exhaustive_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand.  The input errors of every subcommand exit 2 here:
    a non-strong input names an unreachable pair, and malformed values and
    unreadable or unwritable files give a JSON error."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotStrongError as exc:
        return _fail(2, str(exc), unreachable_pair=list(exc.pair))
    except (ValueError, OSError) as exc:
        return _fail(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
