"""Command-line front end.

Subcommands: mark, classify, map, count, enumerate, verify, roundtrip.
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
    _refine_sim,
    classify_eq,
    classify_lt,
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
    """argparse type of every size bound: an int >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_parts(text: str, option: str) -> tuple[int, ...]:
    """A partition from a comma list or a JSON array given to `option`."""
    text = text.strip()
    if not text or text == "[]":
        return ()
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
    if getattr(args, "fixture", None):
        return fixture_parts(args.fixture), fixture_overline(args.fixture)
    if args.parts is None:
        print("error: give --parts or --fixture", file=sys.stderr)
        raise SystemExit(2)
    return _parse_parts(args.parts, "--parts"), getattr(args, "overline", None)


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
    if args.p is None or args.t is None:
        print("error: classify needs -p and -t, or -m", file=sys.stderr)
        return 2
    p, t = args.p, args.t
    out["p"], out["t"] = p, t
    lt = classify_lt(mp, k, r, p, t)
    sim = _refine_sim(mp, k, r, p, t, lt) if lt else None
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
    "insert": lambda mp, a: (maps.insert_odd(mp, a.k, a.r, a.p, a.t), None),
    "separate": lambda mp, a: (maps.separate_odd(mp, a.k, a.r, a.p, a.t), None),
    "phi-pt": lambda mp, a: (maps.phi_pt(mp, a.k, a.r, a.p, a.t), None),
    "psi-pt": lambda mp, a: (maps.psi_pt(mp, a.k, a.r, a.p, a.t), None),
    "phi-m": lambda mp, a: (maps.phi_m(mp, a.k, a.r, a.m), None),
    "psi-m": lambda mp, a: (maps.psi_m(mp, a.k, a.r, a.m), None),
}
_PT_OPS = ("dilate", "reduce", "insert", "separate", "phi-pt", "psi-pt")  # the ops at one (p, t)


def cmd_map(args) -> int:
    parts, over = _input_partition(args)
    if args.op in _PT_OPS and (args.p is None or args.t is None):
        print(f"error: --op {args.op} needs -p and -t", file=sys.stderr)
        return 2
    if args.op in ("phi-m", "psi-m") and args.m is None:
        print(f"error: --op {args.op} needs -m", file=sys.stderr)
        return 2
    if args.op in ("phi", "psi") and (args.k, args.r) != (3, 3):
        got = f"-k {args.k} -r {args.r}"
        print(f"error: --op {args.op} is for -k 3 -r 3 only, got {got}", file=sys.stderr)
        return 2
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
        if args.trace and trace is not None:
            for step in trace.steps:
                print(render_grid(step), file=sys.stderr)
                print("--", file=sys.stderr)
    if args.op in _PT_OPS:
        result["p"], result["t"] = args.p, args.t
    if args.format == "text":
        print(render_grid(out))
        if "zeta" in result:
            print("zeta:", ",".join(str(z) for z in result["zeta"]))
    else:
        _print_json(result)
    return 0


def _params_from(args) -> BressoudParams:
    try:
        alphas = tuple(int(a) for a in (args.alphas or "").split(",") if a.strip())
    except ValueError as exc:
        raise ValueError(f"--alphas: cannot read {args.alphas!r} as a comma list ({exc})") from None
    return BressoudParams(alphas, 2 if args.eta is None else args.eta, args.k, args.r)


def _unread_family_options(args, target: str) -> None:
    """Refuse --alphas and --eta where `target` fixes its own family."""
    for option in ("alphas", "eta"):
        if getattr(args, option) is not None:
            raise ValueError(f"{target} does not read --{option}")


def _set_params(args) -> BressoudParams:
    """The family --set names: C is ((1,), 2, k, r), E is ((), 2, k, r), and B
    reads --alphas and --eta."""
    if args.set == "B":
        return _params_from(args)
    _unread_family_options(args, f"--set {args.set}")
    return BressoudParams((1,) if args.set == "C" else (), 2, args.k, args.r)


def cmd_count(args) -> int:
    params = _set_params(args)
    print("n,count")
    for n in range(args.max_n + 1):
        print(f"{n},{len(enumerate_B(params, n))}")
    return 0


def cmd_enumerate(args) -> int:
    if args.set in ("I", "F33"):
        _unread_family_options(args, f"--set {args.set}")
    if args.set == "I":
        for z in enumerate_I(args.floor, args.max_weight):
            print(json.dumps(list(z)))
        return 0
    if args.set == "F33":
        for p, z in enumerate_F33(args.n):
            print(json.dumps([list(p), list(z)]))
        return 0
    for p in enumerate_B(_set_params(args), args.n):
        print(json.dumps(list(p)))
    return 0


_IDENTITIES = {
    "conjecture": lambda a: verify.conjecture(_params_from(a), a.qmax),
    "product": lambda a: verify.product(_params_from(a), a.qmax),
    "sum-product": lambda a: verify.sum_product(_params_from(a), a.qmax),
    "companion": lambda a: verify.companion(a.qmax),
    "cell": lambda a: verify.cell(a.k, a.r, a.qmax, a.max_n1),
}


def _mismatch(res: verify.Result) -> str:
    where, expected, got = res.first
    return f"first mismatch at {where} expected {expected!r} got {got!r}"


def cmd_verify(args) -> int:
    if args.identity == "companion" and (args.k, args.r) != (3, 3):
        got = f"-k {args.k} -r {args.r}"
        print(f"error: --identity companion is for -k 3 -r 3 only, got {got}", file=sys.stderr)
        return 2
    if args.identity in ("companion", "cell"):
        _unread_family_options(args, f"--identity {args.identity}")
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
    print(f"failures={fwd.failures + bwd.failures}")
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
    p.add_argument("-p", type=int)
    p.add_argument("-t", type=int)
    p.add_argument("-m", type=int)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("map", help="apply one of the bijections")
    add_partition_opts(p)
    p.add_argument("--op", required=True, choices=list(_OPS) + ["phi", "psi"])
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    p.add_argument("-p", type=int)
    p.add_argument("-t", type=int)
    p.add_argument("-m", type=int)
    p.add_argument("--zeta", help="odd parts to absorb (phi)")
    p.add_argument("--trace", action="store_true", help="print intermediate grids to stderr")
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
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    p.add_argument("-n", type=nonnegative, default=0)
    p.add_argument("--floor", type=nonnegative, default=0, help="odd parts >= 2*floor+1 (I)")
    p.add_argument("--max-weight", type=nonnegative, default=0)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="check one identity coefficient-by-coefficient")
    p.add_argument(
        "--identity",
        required=True,
        choices=tuple(_IDENTITIES),
    )
    p.add_argument("--alphas")
    p.add_argument("--eta", type=int, help="default 2")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    p.add_argument("--qmax", type=nonnegative, required=True)
    p.add_argument("--max-n1", type=nonnegative, default=4, help="largest leading row count (cell)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("roundtrip", help="exhaustive inverse-map sweeps")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("-r", type=int, default=3)
    p.add_argument("--max-weight", type=nonnegative, required=True)
    p.set_defaults(fn=cmd_roundtrip)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
