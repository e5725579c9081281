import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsz_lab
from fsz_lab import cli
from fsz_lab.sylow import SylowElem

SRC = str(Path(fsz_lab.__file__).resolve().parents[1])


def run_python(args, timeout):
    """A fresh interpreter that imports fsz_lab from the same tree as this test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qrdiff_all_match(capsys):
    code, out, _ = run(capsys, "qrdiff", "--q", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert all(row["match"] for row in doc["rows"])


def test_field_json(capsys):
    code, out, _ = run(capsys, "field", "--p", "3", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == [1, 0, 1] and doc["q"] == 9


def test_qr_set(capsys):
    code, out, _ = run(capsys, "qr", "--q", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == [0, 1, 2, 4] and doc["oracle_match"]


def test_gauss(capsys):
    code, out, _ = run(capsys, "gauss", "--p", "5", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_match"] and doc["rational_value"] == [-5, 1]


def test_fibers_single(capsys):
    code, out, _ = run(capsys, "fibers", "--p", "5", "--n", "1", "--z", "1", "--y", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [{"z": 1, "y": 0, "closed": 1, "enum": 1, "match": True}]


def test_binom_rows(capsys):
    code, out, _ = run(capsys, "binom", "--p", "5", "--j", "1")
    assert code == 0
    doc = json.loads(out)
    assert all(row["match"] for row in doc["rows"])


def test_pairs(capsys):
    code, out, _ = run(capsys, "pairs", "--q", "5")
    assert code == 0
    doc = json.loads(out)
    by_d = {row["d"]: row["closed"] for row in doc["rows"]}
    assert by_d == {1: 0, 2: 2, 3: 2, 4: 0}


def test_sylow_solve(capsys):
    code, out, _ = run(capsys, "sylow", "solve", "--p", "5", "--q", "5", "--j", "1",
                       "--d", "1", "--x", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_match"]
    assert doc["solution"]["L_upper"] == [1, 0, 1]


def test_sylow_solve_powers_its_solution_once(capsys, monkeypatch):
    # solve_pth_power verifies sol^m = g^d itself; the CLI does not repeat it
    calls = []
    pow_ = SylowElem.pow

    def counted(self, j):
        calls.append(j)
        return pow_(self, j)

    monkeypatch.setattr(SylowElem, "pow", counted)
    code, out, _ = run(capsys, "sylow", "solve", "--p", "5", "--q", "5", "--j", "1",
                       "--d", "1", "--x", "1")
    assert code == 0 and json.loads(out)["oracle_match"] is True
    assert len(calls) == 1


def test_sylow_solve_corrupted_construction_is_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(SylowElem, "from_symmetric",
                        classmethod(lambda cls, L, S: cls.identity(L.spec, L.n)))
    code, out, err = run(capsys, "sylow", "solve", "--p", "5", "--q", "5", "--j", "1",
                         "--d", "1", "--x", "1")
    assert code == 1 and out == ""
    assert err.startswith("verification mismatch") and len(err.splitlines()) == 1


def test_sylow_count_fast(capsys):
    code, out, _ = run(capsys, "sylow", "count", "--p", "5", "--q", "5", "--j", "1")
    assert code == 0
    assert json.loads(out)["count"] == 250000


def test_sylow_count_fast_claims_no_oracle_match(capsys):
    # the fast route compares nothing, so it states no agreement
    code, out, _ = run(capsys, "sylow", "count", "--p", "5", "--q", "78125", "--j", "1")
    assert code == 0
    assert "oracle_match" not in json.loads(out)


def test_sylow_count_brute_over_extension_field(capsys):
    code, out, _ = run(capsys, "sylow", "count", "--p", "3", "--q", "9", "--j", "1",
                       "--mode", "brute")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 648
    assert doc["oracle_match"] is True


def test_binom_bad_input_is_usage_error(capsys):
    for p, j in (("4", "1"), ("5", "0")):
        code, out, err = run(capsys, "binom", "--p", p, "--j", j)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,error", [
    (["--p", "3", "--j", "-1"], "j must be >= 1, got -1"),
    (["--p", "3", "--j", "-1", "--k", "1"], "j must be >= 1, got -1"),
    (["--p", "-3", "--j", "15"], "p must be an odd prime, got -3"),
    (["--p", "0", "--j", "3"], "p must be an odd prime, got 0"),
], ids=["all-pairs", "one-pair", "p=-3", "p=0"])
def test_binom_negative_j_is_one_line_usage_error(capsys, argv, error):
    # p ** j is a fraction for j < 0, and a p below 2 lists no pairs, so no
    # pair would ever refuse it: both paths refuse p and j before using them
    code, out, err = run(capsys, "binom", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {error}\n"


def test_binom_l_without_k_is_usage_error(capsys):
    code, out, err = run(capsys, "binom", "--p", "3", "--j", "1", "--l", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --l needs --k\n"


def test_centralizer_check_needs_a_sample(capsys):
    for samples in ("-1", "0"):
        code, out, err = run(capsys, "centralizer", "check", "--p", "5", "--q", "5",
                             "--j", "1", "--samples", samples)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


def test_field_beyond_the_prime_test_is_usage_error(capsys):
    # 399165290221 * 798330580441, a strong pseudoprime to every base 2..37
    code, out, err = run(capsys, "field", "--p", "318665857834031151167461")
    assert code == 2
    assert out == "" and err.count("\n") == 1


def test_threads_below_one_is_usage_error(capsys):
    for threads in ("0", "-4"):
        code, out, err = run(capsys, "--threads", threads, "sylow", "count", "--p", "3",
                             "--q", "3", "--j", "1", "--mode", "brute")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


def test_sylow_fsz_verdict(capsys):
    code, out, _ = run(capsys, "sylow", "fsz", "--p", "5", "--q", "5", "--j", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "non-FSZ_5-at-z"
    assert doc["witness"] == "U"


def test_sylow_beta(capsys):
    code, out, _ = run(capsys, "sylow", "beta", "--p", "5", "--q", "5", "--j", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert not any(row["rational"] for row in doc["rows"])


def test_sylow_gm(capsys):
    code, out, _ = run(capsys, "sylow", "gm", "--p", "5", "--q", "5", "--j", "1",
                       "--d", "2", "--u", "U")
    assert code == 0
    assert json.loads(out)["count"] == 62500


def test_sylow_gm_with_u_from_file(capsys, tmp_path):
    from fsz_lab.fields import field
    from fsz_lab.sylow import u_witness

    u = u_witness(field(5), 3)
    path = tmp_path / "u.json"
    path.write_text(json.dumps(u.to_json()))
    code, out, _ = run(capsys, "sylow", "gm", "--p", "5", "--q", "5", "--j", "1",
                       "--d", "2", "--u", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 62500


def test_sylow_gm_with_malformed_u_file(capsys, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"A": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}))
    code, out, err = run(capsys, "sylow", "gm", "--p", "5", "--q", "5", "--j", "1",
                         "--u", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "L_upper" in err and err.count("\n") == 1


def test_sylow_gm_with_out_of_range_u_entry(capsys, tmp_path):
    # L_upper [5, 0, 0] would reduce to the identity's, and A = 0 fits it
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"L_upper": [5, 0, 0], "A": [[0, 0, 0]] * 3}))
    code, out, err = run(capsys, "sylow", "gm", "--p", "5", "--q", "5", "--j", "1",
                         "--u", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "[0, 5)" in err and err.count("\n") == 1


@pytest.mark.parametrize("entry", [[], [1], [1, 0, 0]])
def test_sylow_gm_with_short_or_long_coefficient_list(capsys, tmp_path, entry):
    # [] and [1] would be padded to 0 and 1; a GF(25) list carries both coefficients
    path = tmp_path / "u.json"
    zero = [0, 0]
    path.write_text(json.dumps({"L_upper": [entry, zero, zero], "A": [[zero] * 3] * 3}))
    code, out, err = run(capsys, "sylow", "gm", "--p", "5", "--q", "25", "--j", "1",
                         "--d", "2", "--u", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "2 coefficients" in err and err.count("\n") == 1


def test_sylow_beta_with_out_of_range_zparam_coefficient(capsys):
    # [9,1] would reduce to [4,1]; bare integers keep their reduction mod p
    code, out, err = run(capsys, "sylow", "beta", "--p", "5", "--q", "25", "--j", "1",
                         "--zparam", "[9,1] mod (5,2)")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "outside [0, 5)" in err and err.count("\n") == 1


def test_sylow_fsz_with_beta(capsys):
    code, out, _ = run(capsys, "sylow", "fsz", "--p", "5", "--q", "5", "--j", "1",
                       "--beta")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["beta"]) == 4
    assert all(not row["rational"] for row in doc["beta"])
    assert all(row["zparam"] in (1, 2, 3, 4) for row in doc["beta"])


def test_sylow_enumerate_range(capsys):
    code, out, _ = run(capsys, "sylow", "enumerate", "--n", "2", "--q", "3",
                       "--start", "0", "--stop", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 5
    assert [row["index"] for row in lines] == [0, 1, 2, 3, 4]


def test_budget_refusal_prints_required(capsys):
    code, out, err = run(capsys, "sylow", "count", "--p", "7", "--q", "7", "--j", "1",
                         "--mode", "brute")
    assert code == 2
    assert str(7 ** 16) in err


def test_budget_refusal_of_a_count_too_long_to_print(capsys):
    # |P(Sp_400(3))| = 3^40000 has 19085 digits, past str()'s limit
    code, out, err = run(capsys, "sylow", "enumerate", "--n", "200", "--q", "3")
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith("budget exceeded: required about 10^19085 elements")


def test_pairs_budget_counts_every_enumerated_pair(capsys):
    # 196 exponents d, each walking 197^2 pairs: refused before any enumeration
    code, out, err = run(capsys, "pairs", "--q", "197")
    assert code == 2
    assert out == "" and f"--budget {196 * 197 ** 2}" in err
    code, out, _ = run(capsys, "pairs", "--q", "53")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 52


_TABLE_REFUSAL = "error: field too large for tables (q=177147 > 65536)\n"
_BUDGET_REFUSAL = ("budget exceeded: required 177147 elements (budget 100000); "
                   "rerun with --budget 177147\n")


@pytest.mark.parametrize("argv,err", [
    (["sylow", "fsz", "--p", "3", "--q", "177147", "--j", "1"], _TABLE_REFUSAL),
    (["--budget", "100000", "sylow", "beta", "--p", "3", "--q", "177147", "--j", "1",
      "--zparam", "1"], _BUDGET_REFUSAL),
    (["--budget", "100000", "sylow", "beta", "--p", "3", "--q", "177147", "--j", "1"],
     _BUDGET_REFUSAL),
    (["sylow", "solve", "--p", "3", "--q", "177147", "--j", "1"], _TABLE_REFUSAL),
], ids=["fsz", "beta", "beta-every-zparam", "solve"])
def test_fast_route_above_the_table_bound_is_refused(capsys, argv, err):
    # the superdiagonal histogram, and the square root in solve, run on
    # field tables, which stop at 2^16; the closed-form betas need no table,
    # so beta is refused there only by a budget below the q elements it charges
    code, out, got = run(capsys, *argv)
    assert code == 2
    assert out == "" and got == err


def test_beta_above_the_table_bound_answers_from_the_closed_form(capsys):
    # the corner betas need only G(q) and the quadratic character; at q = 3^11,
    # with p = 3 mod 4, G is purely imaginary, so beta = q^4 (q + 1) at n = 2
    q = 3 ** 11
    code, out, err = run(capsys, "sylow", "beta", "--p", "3", "--q", str(q), "--j", "1",
                         "--zparam", "1")
    assert code == 0 and err == ""
    (row,) = json.loads(out)["rows"]
    assert row["rational"] and row["value"] == [q ** 4 * (q + 1), 1]


def test_pairs_above_the_table_bound_is_refused(capsys):
    # within budget, but the enumeration runs on field tables, which stop at 2^16
    code, out, err = run(capsys, "--budget", str(10 ** 10), "pairs", "--q", "65537", "--d", "1")
    assert code == 2
    assert out == "" and err == "error: field too large for tables (q=65537 > 65536)\n"


@pytest.mark.parametrize("argv,required", [
    (["--budget", "1000", "qrdiff", "--q", "125"], 124 * 63),
    (["--budget", "1000", "qrdiff", "--q", "125", "--c", "1"], None),
    # fibers: one unit per (z, y) row, apart from the q of the field
    (["--budget", "619", "fibers", "--p", "5", "--n", "3"], 124 * 5),
    (["--budget", "125", "fibers", "--p", "5", "--n", "3", "--z", "1"], None),
    (["--budget", "620", "fibers", "--p", "5", "--n", "3"], None),
    # binom: the p^j terms of the direct oracle for each pair k <= l <= (p^j - 1)/2
    (["--budget", "10", "binom", "--p", "3", "--j", "5"], 122 * 123 // 2 * 3 ** 5),
    (["binom", "--p", "5", "--j", "6"], 7813 * 7814 // 2 * 5 ** 6),
    (["--budget", "242", "binom", "--p", "3", "--j", "5", "--k", "1"], 3 ** 5),
    (["--budget", "243", "binom", "--p", "3", "--j", "5", "--k", "1"], None),
], ids=["qrdiff-all", "qrdiff-one", "fibers-all", "fibers-one-z", "fibers-all-at-budget",
        "binom-all", "binom-5^6", "binom-one-over", "binom-one"])
def test_residue_budgets_count_every_enumerated_square(capsys, argv, required):
    code, out, err = run(capsys, *argv)
    if required is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and f"--budget {required}" in err


@pytest.mark.parametrize("argv,required", [
    (["gauss", "--p", "3", "--n", "40"], 3 ** 40),
    (["fibers", "--p", "3", "--n", "40"], 3 ** 40),
    (["--budget", "100", "gauss", "--p", "5", "--n", "3"], 125),
    (["--budget", "100", "fibers", "--p", "5", "--n", "3"], 125),
    (["--budget", "100", "qr", "--q", "125"], 125),
    (["--budget", "100", "qrdiff", "--q", "125"], 125),
    (["--budget", "100", "pairs", "--q", "125"], 125),
    # the modulus search of GF(3^17) alone walks up to 3^17 candidates
    (["field", "--p", "3", "--n", "17"], 3 ** 17),
    (["sylow", "count", "--p", "3", "--q", str(3 ** 17), "--j", "1"], 3 ** 17),
    (["sylow", "enumerate", "--n", "1", "--q", str(3 ** 17), "--stop", "1"], 3 ** 17),
], ids=["gauss-3^40", "fibers-3^40", "gauss-125", "fibers-125", "qr-125", "qrdiff-125",
        "pairs-125", "field-3^17", "count-3^17", "enumerate-3^17"])
def test_field_enumeration_over_budget_is_refused(capsys, monkeypatch, argv, required):
    def unreachable(*args):
        raise AssertionError("field built")

    # refused before any field is built, so before any modulus search
    for name in ("field", "field_for_order", "make_target"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith("budget exceeded") and f"--budget {required}" in err


@pytest.mark.parametrize("argv,required", [
    (["field", "--p", "3", "--n", "30000000"], "about 10^14313638"),
    (["field", "--p", "3", "--n", "3000000"], "about 10^1431364"),
    (["binom", "--p", "3", "--j", "3000000"], "about 10^4294090"),
    (["binom", "--p", "3", "--j", "3000000", "--k", "1"], "about 10^1431364"),
    # n = 9,842, so the n^2 entries pass the budget but the 3^(n^2) scanned elements do not
    (["--budget", "100000000", "sylow", "count", "--p", "3", "--q", "3", "--j", "9",
      "--mode", "brute"], "about 10^46216333"),
], ids=["field-3^30000000", "field-3^3000000", "binom-every-pair", "binom-one-pair",
        "count-brute-3^(9842^2)"])
def test_refusal_of_a_count_too_long_to_print_forms_no_power(argv, required):
    # forming 3^30000000 alone takes about 20 s; the refusal is decided by bit
    # lengths and its size read from logarithms
    out = run_python(["-m", "fsz_lab.cli", *argv], timeout=10)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith(f"budget exceeded: required {required} elements")


NO_NUMPY_BEFORE_A_SCAN = """
import sys
import fsz_lab
import fsz_lab.cli
from fsz_lab import cli
assert cli.main(["sylow", "fsz", "--p", "5", "--q", "5", "--j", "1"]) == 0
assert cli.main(["sylow", "beta", "--p", "3", "--q", "9", "--j", "1"]) == 0
assert cli.main(["verify", "quick"]) == 0
for name in ("numpy", "fsz_lab.scan", "concurrent.futures"):
    assert name not in sys.modules, f"{name} loaded without a brute scan"
from fsz_lab import fsz
out = fsz.brute_characterization_scan(3, 3, 1)
assert out["counts"] == {1: 18, 2: 18} and out["agree"], out
from fsz_lab import scan
assert fsz._scan_worker is scan._scan_worker
"""


def test_numpy_is_loaded_only_by_a_brute_scan():
    out = run_python(["-c", NO_NUMPY_BEFORE_A_SCAN], timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_scan_imports_nothing_of_the_fast_or_character_route():
    # the kernel is an oracle: it may not import the fast route's module, nor
    # the residue and Gauss-sum modules the closed formulas rest on
    tree = ast.parse((Path(SRC) / "fsz_lab" / "scan.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "numpy" in names and "sylow" in names
    assert names.isdisjoint({"fsz", "residues", "cyclotomic"}), sorted(names)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sylow_enumerate_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "sylow", "enumerate", "--n", n, "--q", "3")
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "--n must be at least 1" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "qrdiff", "--nope", "5")
    assert code == 2


def test_centralizer_check(capsys):
    code, out, _ = run(capsys, "centralizer", "check", "--p", "5", "--q", "5",
                       "--j", "1", "--samples", "25", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"]
    assert set(doc["suites"]) == {
        "predicate_equivalence",
        "projection_homomorphism",
        "section_identity",
        "kernel_order",
    }


def test_deterministic_output_across_threads(capsys):
    _, out1, _ = run(capsys, "--threads", "1",
                     "sylow", "count", "--p", "3", "--q", "3", "--j", "1",
                     "--mode", "brute")
    _, out2, _ = run(capsys, "--threads", "2",
                     "sylow", "count", "--p", "3", "--q", "3", "--j", "1",
                     "--mode", "brute")
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "qrdiff", "--q", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,claim,closed,enum,match,q"
    assert len(lines) == 5


@pytest.mark.parametrize("argv,header,rows", [
    (["field", "--p", "3", "--n", "2"], ["claim", "modulus", "n", "p", "q"],
     [["field-spec", "[1, 0, 1]", "2", "3", "9"]]),
    (["sylow", "fsz", "--p", "5", "--q", "5", "--j", "1"],
     ["beta", "claim", "counts", "group", "m", "u", "verdict", "witness", "z"],
     [["[]", "count-equality-test", '{"1": 250000, "2": 250000, "3": 250000, "4": 250000}',
       "P(Sp_6(5))", "5", "identity", "non-FSZ_5-at-z", "U", "g1 in P(Sp_6(5))"],
      ["[]", "count-equality-test", '{"1": 0, "2": 62500, "3": 62500, "4": 0}',
       "P(Sp_6(5))", "5", "U", "non-FSZ_5-at-z", "U", "g1 in P(Sp_6(5))"]]),
], ids=["no-rows", "nested-values"])
def test_csv_parses_back(capsys, argv, header, rows):
    # a document without rows is one header and one row; each row carries the
    # document's top-level fields; nested values are quoted
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [header, *rows]


def test_csv_rows_keep_the_verdict(capsys):
    code, out, _ = run(capsys, "--format", "csv", "sylow", "fsz", "--p", "5", "--q", "5",
                       "--j", "1")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 2
    for row in rows:
        record = dict(zip(header, row))
        assert record["verdict"] == "non-FSZ_5-at-z" and record["witness"] == "U"


@pytest.mark.parametrize("j", ["-1", "0"])
def test_sylow_fsz_checks_j_before_u(capsys, j):
    code, out, err = run(capsys, "sylow", "fsz", "--p", "3", "--q", "3", "--j", j, "--u", "U")
    assert code == 2
    assert out == "" and err == "error: j must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["sylow", "solve", "--p", "3", "--q", "3", "--j", "40"],
    ["sylow", "count", "--p", "3", "--q", "3", "--j", "40"],
    ["sylow", "fsz", "--p", "3", "--q", "3", "--j", "40"],
    ["sylow", "gm", "--p", "3", "--q", "3", "--j", "40"],
    ["sylow", "beta", "--p", "3", "--q", "3", "--j", "40"],
    ["centralizer", "check", "--p", "3", "--q", "3", "--j", "40"],
], ids=["solve", "count", "fsz", "gm", "beta", "centralizer"])
def test_j_too_large_to_index_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: instance too large") and err.count("\n") == 1


TARGET_COMMANDS = {
    "solve": ["sylow", "solve"],
    "count": ["sylow", "count"],
    "fsz": ["sylow", "fsz"],
    "gm": ["sylow", "gm"],
    "beta": ["sylow", "beta"],
    "centralizer": ["centralizer", "check"],
}


@pytest.mark.parametrize("j,first_line", [
    # n = 29,525: n^2 = 871,725,625 entries, over the default budget
    ("10", f"budget exceeded: required {29525 ** 2} elements"),
    # 3^100000000 is never formed
    ("100000000", "error: instance too large"),
], ids=["j=10", "j=10^8"])
@pytest.mark.parametrize("command", TARGET_COMMANDS)
def test_target_is_sized_before_it_is_built(capsys, monkeypatch, command, j, first_line):
    def unreachable(*args):
        raise AssertionError("make_target called")

    monkeypatch.setattr(cli, "make_target", unreachable)
    code, out, err = run(capsys, *TARGET_COMMANDS[command], "--p", "3", "--q", "3", "--j", j)
    assert code == 2
    assert out == "" and err.startswith(first_line) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "gm", "fsz"])
def test_brute_mode_is_charged_before_the_scan(capsys, monkeypatch, command):
    from fsz_lab import fsz

    def unreachable(*args, **kwargs):
        raise AssertionError("brute scan started")

    monkeypatch.setattr(fsz, "brute_characterization_scan", unreachable)
    monkeypatch.setattr(cli, "brute_characterization_scan", unreachable)
    code, out, err = run(capsys, "--budget", "1000000", "sylow", command, "--mode", "brute",
                         "--p", "5", "--q", "5", "--j", "1")
    assert code == 2
    assert out == "" and err.count("\n") == 1
    # fsz scans once per u row, and its default u-set is identity and U
    scans = 2 if command == "fsz" else 1
    assert err.startswith("budget exceeded") and f"--budget {scans * 5 ** 9}" in err


@pytest.mark.parametrize("u,scans", [([], 2), (["identity", "U", "U"], 3)],
                         ids=["default", "three-u"])
def test_brute_fsz_is_charged_once_per_u_row(capsys, monkeypatch, u, scans):
    from fsz_lab import fsz

    def unreachable(*args, **kwargs):
        raise AssertionError("brute scan started")

    monkeypatch.setattr(fsz, "brute_characterization_scan", unreachable)
    # 3,000,000 covers one scan of the 5^9 elements but not two
    code, out, err = run(capsys, "--budget", "3000000", "sylow", "fsz", "--mode", "brute",
                         "--p", "5", "--q", "5", "--j", "1", *(["--u", *u] if u else []))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith("budget exceeded") and f"--budget {scans * 5 ** 9}" in err


def test_verify_takes_no_budget(capsys):
    # the 5^9 scan is a fixed tier, not an enumeration the budget may refuse
    code, out, _ = run(capsys, "--budget", "1000000", "verify", "all", "--only", "AC8")
    assert code == 0
    assert out.startswith("AC8") and "PASS" in out


def test_pretty_format(capsys):
    code, out, _ = run(capsys, "--format", "pretty", "qrdiff", "--q", "5", "--c", "1")
    assert code == 0
    assert "closed" in out and "match" in out


def test_injected_failure_exits_one(capsys, monkeypatch):
    from fsz_lab import acceptance

    monkeypatch.setattr(
        acceptance, "ac1_qr_sizes", lambda: (False, "injected corruption")
    )
    code, out, _ = run(capsys, "verify", "quick", "--only", "AC1")
    assert code == 1
    assert "FAIL" in out and "injected corruption" in out


def test_verify_only_single_tier(capsys):
    code, out, _ = run(capsys, "verify", "all", "--only", "AC2")
    assert code == 0
    assert out.startswith("AC2") and "PASS" in out


def test_verify_empty_selection_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "quick", "--only", "AC6", "AC7")
    assert code == 2
    assert out == "" and "AC6" in err and err.count("\n") == 1


@pytest.mark.parametrize("name,argv", [
    ("qr_diff_count", ["qrdiff", "--q", "5", "--c", "1"]),
    ("trace_fiber_qr_count", ["fibers", "--p", "5", "--n", "1", "--z", "1", "--y", "0"]),
    ("witness_pair_count", ["pairs", "--q", "5", "--d", "1"]),
    ("binom_product_sum_mod", ["binom", "--p", "5", "--j", "1", "--k", "1"]),
], ids=["qrdiff", "fibers", "pairs", "binom"])
def test_mismatch_exit_code_on_corrupted_formula(capsys, monkeypatch, name, argv):
    # the stub answers 1 for the closed formula (lucas for binom) and 0 for its oracle
    monkeypatch.setattr(cli, name, lambda *args: int(args[-1] in ("closed", "lucas")))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["rows"][0]["match"] is False
