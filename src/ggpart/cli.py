"""Command-line front end.

Subcommands: mark, classify, map, count, enumerate, verify, roundtrip.
A target (a subcommand with its --op, --set or --identity value, or
classify -m) reads only the options in its row of the table _READS, and may
need some; any other option given, or a missing need, is a usage error.
Exit codes: 0 success/PASS, 1 FAIL (identity mismatch or round-trip
failure), 2 usage error.  All output is deterministic; --seedless is
accepted for harness compatibility and simply asserts that behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import maps, verify
from .classify import (
    classify_eq,
    classify_lt,
    classify_sim,
    cluster_indexes,
    find_pt_eq,
    find_pt_lt,
    starting_profile,
)
from .errors import GGError
from .fixtures import fixture_names, fixture_overline, fixture_parts
from .marking import gg_mark, gg_mark_special, marked_to_dict, render_grid
from .membership import BressoudParams, enumerate_B, enumerate_F33, enumerate_I


def nonnegative(text: str) -> int:
    """argparse type of every size bound and level (-p, -t, -m): an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_parts(text: str, option: str) -> tuple[int, ...]:
    """A partition from a comma list or a JSON array given to `option`."""
    text = text.strip()
    try:
        if text.startswith("["):
            vals = json.loads(text)
        else:
            vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"{option}: cannot read {text!r} as a partition ({exc})") from None
    if not all(type(v) is int for v in vals):
        raise ValueError(f"{option}: partition entries must be integers, got {text}")
    parts = tuple(vals)
    if list(parts) != sorted(parts, reverse=True):
        print("note: parts were not non-increasing; sorting", file=sys.stderr)
    return tuple(sorted(parts, reverse=True))


def _input_partition(args) -> tuple[tuple[int, ...], int | None]:
    if args.fixture:
        return fixture_parts(args.fixture), fixture_overline(args.fixture)
    return _parse_parts(args.parts, "--parts"), args.overline


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_mark(args) -> int:
    parts, over = _input_partition(args)
    mp = gg_mark_special(parts, over)
    if args.format == "json":
        _print_json(marked_to_dict(mp))
    else:
        print(render_grid(mp))
    return 0


def cmd_classify(args) -> int:
    parts, over = _input_partition(args)
    mp = gg_mark_special(parts, over)
    k, r = args.k, args.r
    out: dict = {"parts": list(parts), "k": k, "r": r}
    prof = starting_profile(mp)
    out["types"] = {str(i): prof.type_at(i) for i in range(1, mp.N(2) + 1)}
    out["threshold"] = prof.threshold
    if args.m is not None:
        out["m"] = args.m
        out["lt"] = find_pt_lt(mp, k, r, args.m)
        out["eq"] = find_pt_eq(mp, k, r, args.m)
        _print_json(out)
        return 0
    p, t = args.p, args.t
    out["p"], out["t"] = p, t
    lt = classify_lt(mp, k, r, p, t)
    sim = classify_sim(mp, k, r, p, t)
    eq = classify_eq(mp, k, r, p, t)
    fams = {}
    if lt:
        fams["lt"] = {"j": lt.j, "index": lt.index}
        if p >= 1:
            fams["lt"].update(clusters=list(cluster_indexes(mp, p)))
    if sim:
        fams["sim"] = {"j": sim.j}
    if eq:
        fams["eq"] = {"j": eq.j, "index": eq.index}
    out["families"] = fams
    _print_json(out)
    return 0


_OPS = {
    "dilate": lambda mp, a: maps.dilate(mp, a.k, a.r, a.p, a.t),
    "reduce": lambda mp, a: maps.reduce(mp, a.k, a.r, a.p, a.t),
    "insert": lambda mp, a: maps.insert_odd_trace(mp, a.k, a.r, a.p, a.t),
    "separate": lambda mp, a: maps.separate_odd_trace(mp, a.k, a.r, a.p, a.t),
    "phi-pt": lambda mp, a: (maps.phi_pt(mp, a.k, a.r, a.p, a.t), ()),
    "psi-pt": lambda mp, a: (maps.psi_pt(mp, a.k, a.r, a.p, a.t), ()),
    "phi-m": lambda mp, a: (maps.phi_m(mp, a.k, a.r, a.m), ()),
    "psi-m": lambda mp, a: (maps.psi_m(mp, a.k, a.r, a.m), ()),
}  # (output, the tuple of intermediate partitions whose grids --trace prints)


def cmd_map(args) -> int:
    parts, over = _input_partition(args)
    if args.op == "phi":
        zeta = _parse_parts(args.zeta or "", "--zeta")
        out = maps.phi_global(parts, zeta)
        result: dict = {"partition": list(out.parts)}
    elif args.op == "psi":
        out, zeta = maps.psi_global(gg_mark(parts))
        result = {"partition": list(out.parts), "zeta": list(zeta)}
    else:
        mp = gg_mark_special(parts, over)
        out, trace = _OPS[args.op](mp, args)
        result = {"partition": list(out.parts), "weight": out.weight, "length": out.length}
        if out.overline is not None:
            result["overline"] = out.overline[0]
        if args.trace:
            for step in trace:
                print(render_grid(step), file=sys.stderr)
                print("--", file=sys.stderr)
    if args.p is not None:  # the ops at one (p, t)
        result["p"], result["t"] = args.p, args.t
    if args.format == "text":
        print(render_grid(out))
        if "zeta" in result:
            print("zeta:", ",".join(str(z) for z in result["zeta"]))
    else:
        _print_json(result)
    return 0


def _params(args) -> BressoudParams:
    """The family: --set C is ((1,), 2, k, r) and E is ((), 2, k, r); --set B
    and the identities that take a family read --alphas and --eta (default 2)."""
    if getattr(args, "set", "B") != "B":
        return BressoudParams((1,) if args.set == "C" else (), 2, args.k, args.r)
    try:
        alphas = tuple(int(a) for a in (args.alphas or "").split(",") if a.strip())
    except ValueError as exc:
        raise ValueError(f"--alphas: cannot read {args.alphas!r} as a comma list ({exc})") from None
    return BressoudParams(alphas, 2 if args.eta is None else args.eta, args.k, args.r)


def cmd_count(args) -> int:
    params = _params(args)
    print("n,count")
    for n in range(args.max_n + 1):
        print(f"{n},{len(enumerate_B(params, n))}")
    return 0


def cmd_enumerate(args) -> int:
    if args.set == "I":
        for z in enumerate_I(args.floor or 0, args.max_weight or 0):
            print(json.dumps(list(z)))
        return 0
    if args.set == "F33":
        for p, z in enumerate_F33(args.n or 0):
            print(json.dumps([list(p), list(z)]))
        return 0
    args.k, args.r = (3 if v is None else v for v in (args.k, args.r))
    for p in enumerate_B(_params(args), args.n or 0):
        print(json.dumps(list(p)))
    return 0


_IDENTITIES = {
    "conjecture": lambda a: verify.conjecture(_params(a), a.qmax),
    "product": lambda a: verify.product(_params(a), a.qmax),
    "sum-product": lambda a: verify.sum_product(_params(a), a.qmax),
    "companion": lambda a: verify.companion(a.qmax),
    "cell": lambda a: verify.cell(a.k, a.r, a.qmax),
}


def _mismatch(res: verify.Result) -> str:
    where, expected, got = res.first
    return f"first mismatch at {where} expected {expected!r} got {got!r}"


def cmd_verify(args) -> int:
    res = _IDENTITIES[args.identity](args)
    if res.ok:
        print(f"PASS {args.identity} qmax={args.qmax}")
        return 0
    print(f"FAIL {args.identity} qmax={args.qmax} {_mismatch(res)}")
    return 1


def cmd_roundtrip(args) -> int:
    k, r = args.k, args.r
    members = verify.members_by_weight(k, r, args.max_weight)
    fwd, bwd = verify.pt_bijection(k, r, members)
    print(f"phi(psi) round-trips checked={bwd.checked}")
    print(f"psi(phi) round-trips checked={fwd.checked}")
    print(f"mismatches={fwd.failures + bwd.failures}")  # failed comparisons, not items
    results = [fwd, bwd]
    if k == r == 3:
        gfwd, gbwd = verify.global_pairs(members)
        print(f"global round-trips checked={gfwd.checked} failures={gfwd.failures + gbwd.failures}")
        results += [gfwd, gbwd]
    failed = [res for res in results if not res.ok]
    if failed:
        print(_mismatch(failed[0]))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ggpart", description=__doc__)
    ap.add_argument("--seedless", action="store_true", help="deterministic ordering (always on)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_partition_opts(p):
        p.add_argument("--parts", "--partition", dest="parts", help="comma list or JSON array")
        p.add_argument("--fixture", choices=fixture_names())
        p.add_argument("--overline", type=int, help="value carrying the overline")

    p = sub.add_parser("mark", help="print the marking grid")
    add_partition_opts(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_mark)

    p = sub.add_parser("classify", help="family memberships and indexes")
    add_partition_opts(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    for level in ("-p", "-t", "-m"):
        p.add_argument(level, type=nonnegative)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("map", help="apply one of the bijections")
    add_partition_opts(p)
    p.add_argument("--op", required=True, choices=list(_OPS) + ["phi", "psi"])
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    for level in ("-p", "-t", "-m"):
        p.add_argument(level, type=nonnegative)
    p.add_argument("--zeta", help="odd parts to absorb (phi)")
    p.add_argument("--trace", action="store_const", const=True, help="print intermediate grids to stderr")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("count", help="CSV of member counts by weight")
    p.add_argument("--set", choices=("B", "C", "E"), default="C")
    p.add_argument("--alphas", help="comma list, e.g. 1,2")
    p.add_argument("--eta", type=int, help="default 2")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--max-n", type=nonnegative, required=True)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("enumerate", help="JSON lines of members")
    p.add_argument("--set", choices=("B", "C", "E", "I", "F33"), default="C")
    p.add_argument("--alphas")
    p.add_argument("--eta", type=int, help="default 2")
    p.add_argument("-k", type=int, help="default 3 (B, C, E)")
    p.add_argument("-r", type=int, help="default 3 (B, C, E)")
    p.add_argument("-n", type=nonnegative, help="weight, default 0 (all but I)")
    p.add_argument("--floor", type=nonnegative, help="odd parts >= 2*floor+1, default 0 (I)")
    p.add_argument("--max-weight", type=nonnegative, help="default 0 (I)")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="check one identity coefficient-by-coefficient")
    p.add_argument("--identity", required=True, choices=tuple(_IDENTITIES))
    p.add_argument("--alphas")
    p.add_argument("--eta", type=int, help="default 2")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    p.add_argument("--qmax", type=nonnegative, required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("roundtrip", help="exhaustive inverse-map sweeps")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    p.add_argument("--max-weight", type=nonnegative, required=True)
    p.set_defaults(fn=cmd_roundtrip)
    return ap


_IN = "--parts --fixture --overline"  # the input partition, which a --fixture gives whole
_IN_NEED = "--parts or --fixture"
_PT = f"--op {_IN} --format -k -r -p -t"  # the map ops at one (p, t)
_FAMILY = "--alphas --eta -k -r"  # a BressoudParams
_READS = {  # (command, target): (the options the target reads, the ones it needs)
    ("mark", "mark"): (f"{_IN} --format", (_IN_NEED,)),
    ("classify", "classify"): (f"{_IN} -k -r -p -t", (_IN_NEED, "-p", "-t")),
    ("classify", "classify -m"): (f"{_IN} -k -r -m", (_IN_NEED,)),
    **{("map", f"--op {op}"): (f"{_PT} --trace", (_IN_NEED, "-p", "-t"))
       for op in ("dilate", "reduce", "insert", "separate")},
    **{("map", f"--op {op}"): (_PT, (_IN_NEED, "-p", "-t")) for op in ("phi-pt", "psi-pt")},
    **{("map", f"--op {op}"): (f"--op {_IN} --format -k -r -m", (_IN_NEED, "-m")) for op in ("phi-m", "psi-m")},
    ("map", "--op phi"): ("--op --parts --fixture --format -k -r --zeta", (_IN_NEED, "-k 3", "-r 3")),
    ("map", "--op psi"): ("--op --parts --fixture --format -k -r", (_IN_NEED, "-k 3", "-r 3")),
    ("count", "--set B"): (f"--set {_FAMILY} --max-n", ()),
    **{("count", f"--set {s}"): ("--set -k -r --max-n", ()) for s in "CE"},
    ("enumerate", "--set B"): (f"--set {_FAMILY} -n", ()),
    **{("enumerate", f"--set {s}"): ("--set -k -r -n", ()) for s in "CE"},
    ("enumerate", "--set I"): ("--set --floor --max-weight", ()),
    ("enumerate", "--set F33"): ("--set -n", ()),
    **{("verify", f"--identity {i}"): (f"--identity {_FAMILY} --qmax", ())
       for i in ("conjecture", "product", "sum-product")},
    ("verify", "--identity companion"): ("--identity -k -r --qmax", ("-k 3", "-r 3")),
    ("verify", "--identity cell"): ("--identity -k -r --qmax", ()),
    ("roundtrip", "roundtrip"): ("-k -r --max-weight", ()),
}  # a need is an option, an option with the one value it takes, or alternatives joined by "or"


def _check(args) -> None:
    """Refuse a given (not None) option outside the target's row or replaced by --fixture; name a missing need."""
    target = next((f"--{dest} {getattr(args, dest)}" for dest in ("op", "set", "identity") if hasattr(args, dest)),
                  f"{args.cmd} -m" if getattr(args, "m", None) is not None else args.cmd)
    reads, needs = _READS[args.cmd, target]
    given = {("-" if len(dest) == 1 else "--") + dest.replace("_", "-"): value
             for dest, value in vars(args).items() if value is not None and dest not in ("seedless", "cmd", "fn")}
    refused = [(target, flag) for flag in given if flag not in reads.split()]
    if getattr(args, "fixture", None):  # the fixture is the whole partition
        refused += [(f"--fixture {args.fixture}", flag) for flag in given if flag in ("--parts", "--overline")]
    if refused:
        raise ValueError("{} does not read {}".format(*refused[0]))
    holds = {*given, *(f"{flag} {value}" for flag, value in given.items())}  # "-k 3" holds of -k 3
    for need in needs:
        if holds.isdisjoint(need.split(" or ")):
            raise ValueError(f"{target} needs {need}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        return args.fn(args)
    except (GGError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
