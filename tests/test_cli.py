import json

import pytest

from fsz_lab import cli


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


def test_sylow_count_fast(capsys):
    code, out, _ = run(capsys, "sylow", "count", "--p", "5", "--q", "5", "--j", "1")
    assert code == 0
    assert json.loads(out)["count"] == 250000


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


def test_pairs_above_the_table_bound_is_refused(capsys):
    # within budget, but the enumeration runs on field tables, which stop at 2^16
    code, out, err = run(capsys, "--budget", str(10 ** 10), "pairs", "--q", "65537", "--d", "1")
    assert code == 2
    assert out == "" and err == "error: field too large for tables (q=65537 > 65536)\n"


@pytest.mark.parametrize("argv,required", [
    (["--budget", "1000", "qrdiff", "--q", "125"], 124 * 63),
    (["--budget", "1000", "qrdiff", "--q", "125", "--c", "1"], None),
    (["--budget", "1000", "fibers", "--p", "5", "--n", "3"], 124 * 5 * 63),
    (["--budget", "300", "fibers", "--p", "5", "--n", "3", "--z", "1"], 5 * 63),
], ids=["qrdiff-all", "qrdiff-one", "fibers-all", "fibers-one-z"])
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
], ids=["gauss-3^40", "fibers-3^40", "gauss-125", "fibers-125", "qr-125", "qrdiff-125",
        "pairs-125"])
def test_field_enumeration_over_budget_is_refused(capsys, argv, required):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith("budget exceeded") and f"--budget {required}" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sylow_enumerate_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "sylow", "enumerate", "--n", n, "--q", "3")
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "--n must be at least 1" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "qrdiff", "--nope", "5")
    assert code == 2


def test_centralizer_check(capsys):
    code, out, _ = run(capsys, "--seed", "7", "centralizer", "check", "--p", "5",
                       "--q", "5", "--j", "1", "--samples", "25")
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
    _, out1, _ = run(capsys, "--seed", "3", "--threads", "1",
                     "sylow", "count", "--p", "3", "--q", "3", "--j", "1",
                     "--mode", "brute")
    _, out2, _ = run(capsys, "--seed", "3", "--threads", "2",
                     "sylow", "count", "--p", "3", "--q", "3", "--j", "1",
                     "--mode", "brute")
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "qrdiff", "--q", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,closed,enum,match"
    assert len(lines) == 5


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


def test_mismatch_exit_code_on_corrupted_formula(capsys, monkeypatch):
    from fsz_lab import cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "qr_diff_count",
        lambda spec, c, mode="closed": 0 if mode == "closed" else 1,
    )
    code, out, _ = run(capsys, "qrdiff", "--q", "5", "--c", "1")
    assert code == 1
    assert not json.loads(out)["rows"][0]["match"]
