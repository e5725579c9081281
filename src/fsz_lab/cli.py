"""Command-line front end: one subcommand per experiment, exact output only.

Exit codes: 0 on success, 1 on a verification mismatch (a closed formula
disagreeing with its enumeration, or a verdict contradiction), 2 on usage or
budget errors.  All numeric output is exact -- integers or [numerator,
denominator] pairs -- never floating point.  Identical (arguments, seed)
produce byte-identical output regardless of the thread count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import acceptance
from . import centralizer as cz
from .cyclotomic import gauss_sum, gauss_sum_via_prime
from .fields import field, field_for_order
from .fsz import (
    beta_linear_batch,
    brute_characterization_scan,
    count_solutions,
    fsz_test_at,
    gm_count,
    make_target,
    witness_pair_count,
    solve_pth_power,
)
from .parallel import DEFAULT_BUDGET, BudgetExceeded, check_budget, count_text
from .residues import FiberCountQuery, binom_product_sum_mod, qr_diff_count, trace_fiber_qr_count
from .sylow import SylowElem, enumerate_sylow, sylow_count, u_witness

USAGE_ERROR = 2
MISMATCH_ERROR = 1


def _emit(doc: dict, fmt: str, table_key: str | None = None) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    rows = doc.get(table_key or "rows", [])
    if fmt == "csv":
        if not rows:
            return
        header = sorted(rows[0].keys())
        print(",".join(header))
        for row in rows:
            print(",".join(_flat(row.get(h)) for h in header))
        return
    # pretty
    for key, value in sorted(doc.items()):
        if key == (table_key or "rows"):
            continue
        print(f"{key}: {_flat(value)}")
    if rows:
        header = sorted(rows[0].keys())
        widths = [
            max(len(h), max((len(_flat(r.get(h))) for r in rows), default=0))
            for h in header
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(_flat(row.get(h)).ljust(w) for h, w in zip(header, widths)))


def _flat(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _parse_elem(spec, text: str):
    if text.lstrip("-").isdigit():
        return spec.elem(int(text))
    return spec.parse(text)


def _field_within_budget(p: int, n: int, budget: int | None):
    """GF(p^n) for a command that enumerates it, refused before the modulus search."""
    if n >= 1:
        check_budget(p ** n, budget)
    return field(p, n)


def cmd_field(args) -> int:
    spec = field(args.p, args.n)
    doc = {"claim": "field-spec", **spec.to_json(), "q": spec.q}
    _emit(doc, args.format)
    return 0


def cmd_qr(args) -> int:
    check_budget(args.q, args.budget)
    spec = field_for_order(args.q)
    qr = sorted(x.index() for x in spec.qr_set())
    doc = {
        "claim": "qr-set-size",
        "q": args.q,
        "size": len(qr),
        "expected_size": (args.q + 1) // 2,
        "oracle_match": len(qr) == (args.q + 1) // 2,
        "elements": [spec.from_index(i).to_json() for i in qr],
    }
    _emit(doc, args.format)
    return 0 if doc["oracle_match"] else MISMATCH_ERROR


def cmd_qrdiff(args) -> int:
    check_budget(args.q, args.budget)
    spec = field_for_order(args.q)
    cs = [spec.elem(args.c)] if args.c is not None else [
        c for c in spec.elements() if not c.is_zero()
    ]
    # each c walks the (q+1)/2 squares
    check_budget(len(cs) * (args.q + 1) // 2, args.budget)
    rows = []
    ok = True
    for c in cs:
        closed = qr_diff_count(spec, c, "closed")
        enum = qr_diff_count(spec, c, "enum")
        ok = ok and closed == enum
        rows.append({"c": c.to_json(), "closed": closed, "enum": enum,
                     "match": closed == enum})
    doc = {"claim": "qr-difference-count", "q": args.q, "rows": rows}
    _emit(doc, args.format)
    return 0 if ok else MISMATCH_ERROR


def cmd_gauss(args) -> int:
    spec = _field_within_budget(args.p, args.n, args.budget)
    definitional = gauss_sum(spec)
    closed = gauss_sum_via_prime(args.p, args.n)
    match = definitional == closed
    doc = {
        "claim": "gauss-sum-power-identity",
        "p": args.p,
        "n": args.n,
        "definitional": definitional.to_json(),
        "closed": closed.to_json(),
        "oracle_match": match,
    }
    rational, value = definitional.is_rational()
    if rational:
        doc["rational_value"] = [value.numerator, value.denominator]
    _emit(doc, args.format)
    return 0 if match else MISMATCH_ERROR


def cmd_fibers(args) -> int:
    spec = _field_within_budget(args.p, args.n, args.budget)
    if args.z is not None:
        zs = [_parse_elem(spec, args.z)]
    else:
        zs = [z for z in spec.elements() if not z.is_zero()]
    ys = [args.y] if args.y is not None else list(range(args.p))
    # each (z, y) walks the (q+1)/2 squares
    check_budget(len(zs) * len(ys) * (spec.q + 1) // 2, args.budget)
    rows = []
    ok = True
    for z in zs:
        for y in ys:
            query = FiberCountQuery(spec, z, y)
            closed = trace_fiber_qr_count(query, "closed")
            enum = trace_fiber_qr_count(query, "enum")
            ok = ok and closed == enum
            rows.append({"z": z.to_json(), "y": y, "closed": closed,
                         "enum": enum, "match": closed == enum})
    doc = {"claim": "trace-fiber-count", "p": args.p, "n": args.n, "rows": rows}
    _emit(doc, args.format)
    return 0 if ok else MISMATCH_ERROR


def cmd_binom(args) -> int:
    if args.l is not None and args.k is None:
        raise ValueError("--l needs --k")
    bound = (args.p ** args.j - 1) // 2
    if args.k is not None:
        pairs = [(args.k, args.l if args.l is not None else args.k)]
    else:
        pairs = [(k, l) for k in range(bound + 1) for l in range(k, bound + 1)]
    rows = []
    ok = True
    for k, l in pairs:
        direct = binom_product_sum_mod(args.p, args.j, k, l, "direct")
        lucas = binom_product_sum_mod(args.p, args.j, k, l, "lucas")
        ok = ok and direct == lucas
        rows.append({"k": k, "l": l, "direct": direct, "lucas": lucas,
                     "match": direct == lucas})
    doc = {"claim": "binomial-product-sum", "p": args.p, "j": args.j, "rows": rows}
    _emit(doc, args.format)
    return 0 if ok else MISMATCH_ERROR


def _resolve_u(name: str, spec, n: int) -> tuple[str, SylowElem]:
    if name == "identity":
        return "identity", SylowElem.identity(spec, n)
    if name == "U":
        return "U", u_witness(spec, n)
    with open(name, encoding="utf-8") as fh:
        doc = json.load(fh)
    return name, SylowElem.from_json(spec, n, doc)


def cmd_sylow_solve(args) -> int:
    target = make_target(args.p, args.q, args.j, args.d)
    spec = target.spec
    x = _parse_elem(spec, args.x) if args.x is not None else spec.elem(args.d)
    sol = solve_pth_power(target, x)
    verified = sol.pow(target.m) == target.g
    doc = {
        "claim": "pth-power-solution",
        "inputs": {"p": args.p, "q": args.q, "j": args.j, "d": args.d,
                   "corner": x.to_json()},
        "solution": sol.to_json(),
        "oracle_match": verified,
    }
    _emit(doc, args.format)
    return 0 if verified else MISMATCH_ERROR


def cmd_sylow_count(args) -> int:
    target = make_target(args.p, args.q, args.j, args.d)
    doc = {
        "claim": "solution-count",
        "inputs": {"p": args.p, "q": args.q, "j": args.j, "d": args.d,
                   "mode": args.mode},
        "group_order": sylow_count(target.n, args.q),
    }
    if args.mode == "fast":
        doc["count"] = count_solutions(target)
        doc["oracle_match"] = True
    else:
        scan = brute_characterization_scan(
            args.p, args.q, args.j, [args.d], budget=args.budget, threads=args.threads
        )
        doc["count"] = scan["counts"][args.d]
        doc["oracle_match"] = scan["agree"] and scan["counts"][args.d] == count_solutions(target)
    _emit(doc, args.format)
    return 0 if doc["oracle_match"] else MISMATCH_ERROR


def cmd_sylow_fsz(args) -> int:
    spec = field_for_order(args.q)
    n = (args.p ** args.j + 1) // 2
    u_set = None
    if args.u:
        u_set = [_resolve_u(name, spec, n) for name in args.u]
    report = fsz_test_at(
        args.p, args.q, args.j,
        u_set=u_set, mode=args.mode, budget=args.budget, threads=args.threads,
        with_betas=args.beta,
    )
    doc = {"claim": "count-equality-test", **report.to_json()}
    _emit(doc, args.format)
    return 0


def cmd_sylow_beta(args) -> int:
    target = make_target(args.p, args.q, args.j, args.d)
    spec = target.spec
    zparams = (
        [_parse_elem(spec, args.zparam)]
        if args.zparam is not None
        else [z for z in spec.elements() if not z.is_zero()]
    )
    rows = []
    for zp, beta in zip(zparams, beta_linear_batch(zparams, target)):
        row = {"zparam": zp.to_json(), "rational": beta.rational,
               "coeffs": beta.value.to_json()["coeffs"]}
        if beta.rational:
            row["value"] = [beta.rational_value.numerator,
                            beta.rational_value.denominator]
        rows.append(row)
    doc = {"claim": "beta-rationality", "m": target.m, "z": target.describe(),
           "rows": rows}
    _emit(doc, args.format)
    return 0


def cmd_sylow_enumerate(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    spec = field_for_order(args.q)
    total = sylow_count(args.n, args.q)
    stop = total if args.stop is None else min(args.stop, total)
    start = args.start
    check_budget(stop - start, args.budget)
    count = 0
    for x in enumerate_sylow(spec, args.n, start, stop):
        if args.format == "json":
            print(json.dumps({"index": start + count, **x.to_json()}, sort_keys=True))
        count += 1
    if args.format != "json":
        print(f"enumerated {count} of {total} elements")
    return 0


def cmd_sylow_gm(args) -> int:
    target = make_target(args.p, args.q, args.j, args.d)
    name, u = _resolve_u(args.u or "U", target.spec, target.n)
    count = gm_count(u, args.p, args.q, args.j, [target.d], mode=args.mode,
                     budget=args.budget, threads=args.threads)[target.d]
    doc = {
        "claim": "double-root-count",
        "inputs": {"p": args.p, "q": args.q, "j": args.j, "d": args.d, "u": name,
                   "mode": args.mode},
        "count": count,
    }
    _emit(doc, args.format)
    return 0


def cmd_pairs(args) -> int:
    check_budget(args.q, args.budget)
    spec = field_for_order(args.q)
    ds = [spec.elem(args.d)] if args.d is not None else [
        d for d in spec.elements() if not d.is_zero()
    ]
    # each d walks all q^2 pairs (a, b)
    check_budget(len(ds) * args.q ** 2, args.budget)
    rows = []
    ok = True
    for d in ds:
        closed = witness_pair_count(spec, d, "closed")
        enum = witness_pair_count(spec, d, "enum")
        ok = ok and closed == enum
        rows.append({"d": d.to_json(), "closed": closed, "enum": enum,
                     "match": closed == enum})
    doc = {"claim": "pair-count", "q": args.q, "rows": rows}
    _emit(doc, args.format)
    return 0 if ok else MISMATCH_ERROR


def cmd_centralizer_check(args) -> int:
    target = make_target(args.p, args.q, args.j, 1)
    seed = args.check_seed if args.check_seed is not None else args.seed
    results = cz.property_suites(target, random.Random(seed), args.samples)
    ok = all(v["fail"] == 0 for v in results.values())
    doc = {"claim": "centralizer-structure", "seed": seed,
           "samples": args.samples, "suites": results, "all_pass": ok}
    _emit(doc, args.format)
    return 0 if ok else MISMATCH_ERROR


def cmd_verify(args) -> int:
    results = acceptance.run_acceptance(
        quick=args.scope == "quick", budget=args.budget, threads=args.threads,
        only=args.only,
    )
    return 0 if all(r.passed for r in results) else MISMATCH_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsz-lab",
        description="Exact computations with quadratic residues, Gauss sums, "
                    "and the block Sylow subgroups of symplectic groups.",
    )
    parser.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json", help="output format")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget in elements")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: FSZ_LAB_THREADS or CPU count)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="show a field's canonical description")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(fn=cmd_field)

    sp = sub.add_parser("qr", help="quadratic residue set of GF(q)")
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(fn=cmd_qr)

    sp = sub.add_parser("qrdiff", help="difference counts |QR & (QR + c)|")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--c", type=int, default=None)
    sp.set_defaults(fn=cmd_qrdiff)

    sp = sub.add_parser("gauss", help="Gauss sum of GF(p^n), both routes")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(fn=cmd_gauss)

    sp = sub.add_parser("fibers", help="squares per trace fiber")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--z", type=str, default=None)
    sp.add_argument("--y", type=int, default=None)
    sp.set_defaults(fn=cmd_fibers)

    sp = sub.add_parser("binom", help="binomial product sums mod p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--l", type=int, default=None)
    sp.set_defaults(fn=cmd_binom)

    sp = sub.add_parser("pairs", help="pair counts behind the witness comparison")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--d", type=int, default=None)
    sp.set_defaults(fn=cmd_pairs)

    sylow = sub.add_parser("sylow", help="block Sylow subgroup computations")
    ssub = sylow.add_subparsers(dest="sylow_command", required=True)

    sp = ssub.add_parser("solve", help="solve X^(p^j) = g^d with a given corner")
    for flag, required, default in (("--p", True, None), ("--q", True, None),
                                    ("--j", True, None), ("--d", False, 1)):
        sp.add_argument(flag, type=int, required=required, default=default)
    sp.add_argument("--x", type=str, default=None, help="corner value A[0,0]")
    sp.set_defaults(fn=cmd_sylow_solve)

    sp = ssub.add_parser("count", help="count solutions of X^(p^j) = g^d")
    for flag, required, default in (("--p", True, None), ("--q", True, None),
                                    ("--j", True, None), ("--d", False, 1)):
        sp.add_argument(flag, type=int, required=required, default=default)
    sp.add_argument("--mode", choices=("fast", "brute"), default="fast")
    sp.set_defaults(fn=cmd_sylow_count)

    sp = ssub.add_parser("fsz", help="count-equality table and verdict at g")
    for flag, required, default in (("--p", True, None), ("--q", True, None),
                                    ("--j", True, None)):
        sp.add_argument(flag, type=int, required=required, default=default)
    sp.add_argument("--u", nargs="*", default=None,
                    help="u elements: identity, U, or a JSON file path")
    sp.add_argument("--mode", choices=("fast", "brute"), default="fast")
    sp.add_argument("--beta", action="store_true",
                    help="also report beta rationality per character")
    sp.set_defaults(fn=cmd_sylow_fsz)

    sp = ssub.add_parser("gm", help="|{a : a^m = (au)^m = g^d}| for one u")
    for flag, required, default in (("--p", True, None), ("--q", True, None),
                                    ("--j", True, None), ("--d", False, 1)):
        sp.add_argument(flag, type=int, required=required, default=default)
    sp.add_argument("--u", type=str, default="U")
    sp.add_argument("--mode", choices=("fast", "brute"), default="fast")
    sp.set_defaults(fn=cmd_sylow_gm)

    sp = ssub.add_parser("beta", help="exact beta values for corner characters")
    for flag, required, default in (("--p", True, None), ("--q", True, None),
                                    ("--j", True, None), ("--d", False, 1)):
        sp.add_argument(flag, type=int, required=required, default=default)
    sp.add_argument("--zparam", type=str, default=None)
    sp.set_defaults(fn=cmd_sylow_beta)

    sp = ssub.add_parser("enumerate", help="stream group elements by index")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--start", type=int, default=0)
    sp.add_argument("--stop", type=int, default=None)
    sp.set_defaults(fn=cmd_sylow_enumerate)

    cent = sub.add_parser("centralizer", help="centralizer structure checks")
    csub = cent.add_subparsers(dest="centralizer_command", required=True)
    sp = csub.add_parser("check", help="run the sampled property suites")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=None, dest="check_seed",
                    help="overrides the global --seed")
    sp.set_defaults(fn=cmd_centralizer_check)

    sp = sub.add_parser("verify", help="run the acceptance tiers")
    sp.add_argument("scope", choices=("all", "quick"), nargs="?", default="all")
    sp.add_argument("--only", nargs="*", default=None,
                    help="restrict to the named tiers, e.g. --only AC1 AC8")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        required = count_text(exc.required)
        print(f"budget exceeded: required {required} elements "
              f"(budget {count_text(exc.budget)}); rerun with --budget {required}",
              file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return MISMATCH_ERROR


if __name__ == "__main__":
    sys.exit(main())
