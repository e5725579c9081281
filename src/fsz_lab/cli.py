"""Command-line front end: one subcommand per experiment, exact output only.

Exit codes: 0 on success, 1 on a verification mismatch (a closed formula
disagreeing with its enumeration, or a verdict contradiction), 2 on usage or
budget errors.  All numeric output is exact -- integers of any length or
[numerator, denominator] pairs, whose denominator is always 1 since every
cyclotomic value is a cyclotomic integer -- never floating point.  Identical
arguments produce byte-identical output regardless of the thread count.

`--budget` is the only element budget.  Each command charges it once, before
it builds anything: the residue commands charge the field and the squares or
pairs they walk, `field` the p^n candidates of its modulus search, `sylow
enumerate` and the commands that take --j the q elements of their field and
the latter the n^2 entries of their target, and the brute modes the q^(n^2)
elements of each scan.  The library below takes
no budget, and neither does `verify`, whose tiers do fixed work.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import random
import sys
from typing import Callable

from . import acceptance
from . import centralizer as cz
from .cyclotomic import gauss_sum, gauss_sum_via_prime
from .fields import field, field_for_order, is_prime
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
from .parallel import (COUNT_DIGITS, DEFAULT_BUDGET, BudgetExceeded, about_text, check_budget,
                       count_text)
from .residues import FiberCountQuery, binom_product_sum_mod, qr_diff_count, trace_fiber_qr_count
from .sylow import SylowElem, enumerate_sylow, sylow_count, u_witness

USAGE_ERROR = 2
MISMATCH_ERROR = 1


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    rows = doc.get("rows", [])
    if fmt == "csv":
        # every top-level field goes on each row; a document without rows is one row
        fields = {k: v for k, v in doc.items() if k != "rows"}
        table = [{**fields, **row} for row in rows or [{}]]
        header = sorted(table[0].keys())
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_flat(row.get(h)) for h in header] for row in table)
        return
    # pretty
    for key, value in sorted(doc.items()):
        if key == "rows":
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


@contextlib.contextmanager
def _ints_of_any_length():
    """Lift the digit limit of int/str conversion (Python 3.10.7 on) while a command runs."""
    if not hasattr(sys, "set_int_max_str_digits"):  # earlier versions have no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _power_over(base: int, exp: int, bound: int) -> bool:
    """Whether base^exp > bound, decided without forming a power far past bound."""
    if (base.bit_length() - 1) * exp > bound.bit_length():
        return True  # base^exp >= 2^((bits - 1) exp) > bound
    return base ** exp > bound


def _refusal(log10_required: float, required: Callable[[], int], budget: int) -> BudgetExceeded:
    """The refusal of a count already known to pass budget.

    A count of more than COUNT_DIGITS digits reads "about 10^k", so its k is
    taken from log10_required and the count itself is never formed.
    """
    if log10_required < COUNT_DIGITS:
        return BudgetExceeded(required(), budget)
    return BudgetExceeded(about_text(log10_required), budget)


def _oracle_rows(fn: Callable, modes: tuple[str, str], cases) -> list[dict]:
    """One row per (columns, args) case: the case's columns, fn(*args, mode)
    under each of the two modes, and whether the two agree."""
    rows = []
    for columns, args in cases:
        first, second = (fn(*args, mode) for mode in modes)
        rows.append({**columns, modes[0]: first, modes[1]: second, "match": first == second})
    return rows


def _emit_rows(doc: dict, fmt: str) -> int:
    """Print a document of oracle rows; exit 1 unless every row matches."""
    _emit(doc, fmt)
    return 0 if all(row["match"] for row in doc["rows"]) else MISMATCH_ERROR


def _field_within_budget(p: int, n: int, budget: int):
    """GF(p^n) for a command that walks its p^n elements, refused before the modulus search."""
    if n >= 1 and p > 1 and _power_over(p, n, budget):  # field() refuses the rest
        raise _refusal(n * math.log10(p), lambda: p ** n, budget)
    return field(p, n)


def _target_within_budget(args, d: int, scans: int = 0):
    """make_target for the command's (p, q, j) and d, refused before it builds.

    Building the q-element field charges q.  The target holds n x n blocks
    with n = (p^j + 1)/2, so it charges n^2 entries; each brute scan then
    charges the q^(n^2) elements it powers.  A j whose p^j cannot size an
    index is refused without forming p^j, and scans past the budget without
    forming q^(n^2).
    """
    p, j = args.p, args.j
    check_budget(args.q, args.budget)
    if j >= 1 and p > 1:  # make_target refuses the rest
        if _power_over(p, j, sys.maxsize):
            raise OverflowError(f"{p}^{j} does not fit an index")
        n = (p ** j + 1) // 2
        check_budget(n * n, args.budget)
        # scans q^(n^2) > budget exactly when q^(n^2) > budget // scans
        if scans and args.q > 1 and _power_over(args.q, n * n, args.budget // scans):
            raise _refusal(math.log10(scans) + n * n * math.log10(args.q),
                           lambda: scans * sylow_count(n, args.q), args.budget)
    return make_target(p, args.q, j, d)


def cmd_field(args) -> int:
    if args.n >= 2:  # the modulus search may walk all p^n candidates
        spec = _field_within_budget(args.p, args.n, args.budget)
    else:
        spec = field(args.p, args.n)
    doc = {"claim": "field-spec", **spec.to_json(), "q": spec.q}
    _emit(doc, args.format)
    return 0


def cmd_qr(args) -> int:
    check_budget(args.q, args.budget)
    spec = field_for_order(args.q)
    qr = spec.qr_set()
    doc = {
        "claim": "qr-set-size",
        "q": args.q,
        "size": len(qr),
        "expected_size": (args.q + 1) // 2,
        "oracle_match": len(qr) == (args.q + 1) // 2,
        "elements": [x.to_json() for x in qr],
    }
    _emit(doc, args.format)
    return 0 if doc["oracle_match"] else MISMATCH_ERROR


def cmd_qrdiff(args) -> int:
    check_budget(args.q, args.budget)
    spec = field_for_order(args.q)
    cs = [spec.elem(args.c)] if args.c is not None else list(spec.units())
    # each c walks the (q+1)/2 squares
    check_budget(len(cs) * (args.q + 1) // 2, args.budget)
    rows = _oracle_rows(qr_diff_count, ("closed", "enum"),
                        (({"c": c.to_json()}, (spec, c)) for c in cs))
    return _emit_rows({"claim": "qr-difference-count", "q": args.q, "rows": rows},
                      args.format)


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
        doc["rational_value"] = [value, 1]
    _emit(doc, args.format)
    return 0 if match else MISMATCH_ERROR


def cmd_fibers(args) -> int:
    spec = _field_within_budget(args.p, args.n, args.budget)
    if args.z is not None:
        zs = [_parse_elem(spec, args.z)]
    else:
        zs = list(spec.units())
    ys = [args.y] if args.y is not None else list(range(args.p))
    # each (z, y) reads one count of the field's trace tally, which the q
    # charged for the field pays for
    check_budget(len(zs) * len(ys), args.budget)
    rows = _oracle_rows(trace_fiber_qr_count, ("closed", "enum"),
                        (({"z": z.to_json(), "y": y}, (FiberCountQuery(spec, z, y),))
                         for z in zs for y in ys))
    return _emit_rows({"claim": "trace-fiber-count", "p": args.p, "n": args.n, "rows": rows},
                      args.format)


def _binom_terms(p: int, j: int, every_pair: bool) -> int:
    """The terms the direct binom oracle sums: p^j per pair k <= l <= (p^j - 1)/2.

    Over every pair that is about p^(3j)/8.
    """
    size = p ** j
    bound = (size - 1) // 2
    return (bound + 1) * (bound + 2) // 2 * size if every_pair else size


def cmd_binom(args) -> int:
    if args.l is not None and args.k is None:
        raise ValueError("--l needs --k")
    p, j, every_pair = args.p, args.j, args.k is None
    if p == 2 or not is_prime(p):  # a p below 2 lists no pairs to refuse
        raise ValueError(f"p must be an odd prime, got {p}")
    if j < 1:  # p ** j would be a fraction
        raise ValueError(f"j must be >= 1, got {j}")
    if _power_over(p, j, args.budget):  # one pair's p^j terms already pass it
        log10_size = j * math.log10(p)
        log10_required = 3 * log10_size - math.log10(8) if every_pair else log10_size
        raise _refusal(log10_required, lambda: _binom_terms(p, j, every_pair), args.budget)
    check_budget(_binom_terms(p, j, every_pair), args.budget)
    bound = (p ** j - 1) // 2
    if args.k is not None:
        pairs = [(args.k, args.l if args.l is not None else args.k)]
    else:
        pairs = [(k, l) for k in range(bound + 1) for l in range(k, bound + 1)]
    rows = _oracle_rows(binom_product_sum_mod, ("direct", "lucas"),
                        (({"k": k, "l": l}, (p, j, k, l)) for k, l in pairs))
    return _emit_rows({"claim": "binomial-product-sum", "p": p, "j": j, "rows": rows},
                      args.format)


def _resolve_u(name: str, spec, n: int) -> tuple[str, SylowElem]:
    if name == "identity":
        return "identity", SylowElem.identity(spec, n)
    if name == "U":
        return "U", u_witness(spec, n)
    with open(name, encoding="utf-8") as fh:
        doc = json.load(fh)
    return name, SylowElem.from_json(spec, n, doc)


def cmd_sylow_solve(args) -> int:
    target = _target_within_budget(args, args.d)
    spec = target.spec
    x = _parse_elem(spec, args.x) if args.x is not None else spec.elem(args.d)
    sol = solve_pth_power(target, x)
    doc = {
        "claim": "pth-power-solution",
        "inputs": {"p": args.p, "q": args.q, "j": args.j, "d": args.d,
                   "corner": x.to_json()},
        "solution": sol.to_json(),
        "oracle_match": True,  # solve_pth_power raised unless sol^m = g^d
    }
    _emit(doc, args.format)
    return 0


def cmd_sylow_count(args) -> int:
    target = _target_within_budget(args, args.d, scans=int(args.mode == "brute"))
    doc = {
        "claim": "solution-count",
        "inputs": {"p": args.p, "q": args.q, "j": args.j, "d": args.d,
                   "mode": args.mode},
        "group_order": sylow_count(target.n, args.q),
    }
    if args.mode == "fast":  # one route, so no oracle_match to state
        doc["count"] = count_solutions(target)
    else:
        scan = brute_characterization_scan(
            args.p, args.q, args.j, [args.d], threads=args.threads
        )
        doc["count"] = scan["counts"][args.d]
        doc["oracle_match"] = scan["agree"] and doc["count"] == count_solutions(target)
    _emit(doc, args.format)
    return 0 if doc.get("oracle_match", True) else MISMATCH_ERROR


def cmd_sylow_fsz(args) -> int:
    # one brute scan per u row: the default u-set is identity and U
    scans = (len(args.u or ()) or 2) if args.mode == "brute" else 0
    target = _target_within_budget(args, 1, scans=scans)
    u_set = None
    if args.u:
        u_set = [_resolve_u(name, target.spec, target.n) for name in args.u]
    report = fsz_test_at(
        args.p, args.q, args.j,
        u_set=u_set, mode=args.mode, threads=args.threads, with_betas=args.beta,
    )
    doc = {"claim": "count-equality-test", **report.to_json()}
    _emit(doc, args.format)
    return 0


def cmd_sylow_beta(args) -> int:
    target = _target_within_budget(args, args.d)
    spec = target.spec
    zparams = (
        [_parse_elem(spec, args.zparam)]
        if args.zparam is not None
        else list(spec.units())
    )
    rows = []
    for beta in beta_linear_batch(zparams, target):
        row = beta.to_json()
        if beta.rational:
            row["value"] = [beta.rational_value, 1]
        rows.append(row)
    doc = {"claim": "beta-rationality", "m": target.m, "z": target.describe(),
           "rows": rows}
    _emit(doc, args.format)
    return 0


def cmd_sylow_enumerate(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    check_budget(args.q, args.budget)
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
    target = _target_within_budget(args, args.d, scans=int(args.mode == "brute"))
    name, u = _resolve_u(args.u or "U", target.spec, target.n)
    count = gm_count(u, args.p, args.q, args.j, [target.d], mode=args.mode,
                     threads=args.threads)[target.d]
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
    ds = [spec.elem(args.d)] if args.d is not None else list(spec.units())
    # each d walks all q^2 pairs (a, b)
    check_budget(len(ds) * args.q ** 2, args.budget)
    rows = _oracle_rows(witness_pair_count, ("closed", "enum"),
                        (({"d": d.to_json()}, (spec, d)) for d in ds))
    return _emit_rows({"claim": "pair-count", "q": args.q, "rows": rows}, args.format)


def cmd_centralizer_check(args) -> int:
    target = _target_within_budget(args, 1)
    results = cz.property_suites(target, random.Random(args.seed), args.samples)
    ok = all(v["fail"] == 0 for v in results.values())
    doc = {"claim": "centralizer-structure", "seed": args.seed,
           "samples": args.samples, "suites": results, "all_pass": ok}
    _emit(doc, args.format)
    return 0 if ok else MISMATCH_ERROR


def cmd_verify(args) -> int:
    results = acceptance.run_acceptance(
        quick=args.scope == "quick", threads=args.threads, only=args.only
    )
    return 0 if all(r.passed for r in results) else MISMATCH_ERROR


def _instance_flags(sp: argparse.ArgumentParser, with_d: bool = True) -> None:
    """The (p, q, j) instance flags, all required, and the exponent --d (default 1)."""
    for flag in ("--p", "--q", "--j"):
        sp.add_argument(flag, type=int, required=True)
    if with_d:
        sp.add_argument("--d", type=int, default=1)


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
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: CPU count, at most 8)")
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
    _instance_flags(sp)
    sp.add_argument("--x", type=str, default=None, help="corner value A[0,0]")
    sp.set_defaults(fn=cmd_sylow_solve)

    sp = ssub.add_parser("count", help="count solutions of X^(p^j) = g^d")
    _instance_flags(sp)
    sp.add_argument("--mode", choices=("fast", "brute"), default="fast")
    sp.set_defaults(fn=cmd_sylow_count)

    sp = ssub.add_parser("fsz", help="count-equality table and verdict at g")
    _instance_flags(sp, with_d=False)
    sp.add_argument("--u", nargs="+", default=None,
                    help="u elements: identity, U, or a JSON file path")
    sp.add_argument("--mode", choices=("fast", "brute"), default="fast")
    sp.add_argument("--beta", action="store_true",
                    help="also report beta rationality per character")
    sp.set_defaults(fn=cmd_sylow_fsz)

    sp = ssub.add_parser("gm", help="|{a : a^m = (au)^m = g^d}| for one u")
    _instance_flags(sp)
    sp.add_argument("--u", type=str, default="U")
    sp.add_argument("--mode", choices=("fast", "brute"), default="fast")
    sp.set_defaults(fn=cmd_sylow_gm)

    sp = ssub.add_parser("beta", help="exact beta values for corner characters")
    _instance_flags(sp)
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
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.set_defaults(fn=cmd_centralizer_check)

    sp = sub.add_parser("verify", help="run the acceptance tiers")
    sp.add_argument("scope", choices=("all", "quick"), nargs="?", default="all")
    sp.add_argument("--only", nargs="+", default=None,
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
        with _ints_of_any_length():
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
    except OverflowError as exc:  # a j whose p^j does not fit an index
        print(f"error: instance too large: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return MISMATCH_ERROR


if __name__ == "__main__":
    sys.exit(main())
