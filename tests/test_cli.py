import json
import sys
from pathlib import Path

import pytest

from takahashi import cli
from takahashi.claims import ClaimReport, run_claims
from takahashi.exactalg import AbelianGroup, IntPoly, Rational


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------- golden table

# Exit code, stdout and stderr, byte for byte, of every subcommand in text
# and in --json, and of the usage errors that exit 2; a deliberate change
# of output edits its row in cli_golden.json.  cli_golden_cases.json holds
# one h1 row for each case of manifolds.h1_transfer (an infinite
# coefficient, p = r = 0, gcd(qs, pr) = 6, n = 1 and n = 2) and a
# conjecture-scan, all recorded from the Smith-form route.
GOLDEN = [row for name in ("cli_golden.json", "cli_golden_cases.json")
          for row in json.loads(Path(__file__).with_name(name).read_text(encoding="utf-8"))]


@pytest.mark.parametrize("row", GOLDEN, ids=[" ".join(row["argv"]) for row in GOLDEN])
def test_golden_output(capsys, row):
    assert run(capsys, *row["argv"]) == (row["exit"], row["stdout"], row["stderr"])


@pytest.mark.parametrize("argv", [["h1", "3", "3", "-3", "--json"],
                                  ["cover-order", "5", "3", "3", "--json"]])
def test_json_builds_no_text(capsys, monkeypatch, argv):
    # int -> str is quadratic: an order of 400,000 digits takes seconds to
    # render, so under --json no group is rendered as text at all
    def no_text(self):
        raise AssertionError("a group was rendered as text under --json")

    monkeypatch.setattr(AbelianGroup, "__str__", no_text)
    row = next(row for row in GOLDEN if row["argv"] == argv)
    assert run(capsys, *argv) == (0, row["stdout"], "")


# -------------------------------------------------------------------- parsing

def test_rational_arg_forms():
    assert (cli.rational_arg("3/2").num, cli.rational_arg("3/2").den) == (3, 2)
    assert (cli.rational_arg("-3").num, cli.rational_arg("-3").den) == (-3, 1)
    assert (cli.rational_arg("3/-1").num, cli.rational_arg("3/-1").den) == (3, -1)
    assert cli.rational_arg("inf").is_infinite
    with pytest.raises(ValueError):
        cli.rational_arg("3/x")


def test_poly_pretty():
    assert cli.poly_pretty(IntPoly((1, -3, 1))) == "t^2 - 3t + 1"
    assert cli.poly_pretty(IntPoly((1,))) == "1"
    assert cli.poly_pretty(IntPoly(())) == "0"
    assert cli.poly_pretty(IntPoly((0, -1, 2))) == "2t^2 - t"


# ------------------------------------------------------------------------- h1

def test_h1_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "h1", "4", "3/2", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"n": 4, "pq": "3/2", "rs": "1", "torsion": [15],
                   "freeRank": 0, "order": 15}
    group = AbelianGroup(tuple(doc["torsion"]), doc["freeRank"])
    assert group.order() == doc["order"]
    # the rendered coefficients parse back to the same spec
    from takahashi.manifolds import h1_takahashi, normalize_spec

    spec = normalize_spec(doc["n"], cli.rational_arg(doc["pq"]), cli.rational_arg(doc["rs"]))
    assert h1_takahashi(spec) == group


def test_h1_trivial_case(capsys):
    rc, out, _ = run(capsys, "h1", "1", "1/2", "1/5")
    assert rc == 0
    assert "H1 = trivial" in out
    assert "order: 1" in out


def test_h1_infinite_order(capsys):
    rc, out, _ = run(capsys, "h1", "2", "0", "0")
    assert rc == 0
    assert "order: infinite" in out


def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["h1", "3", "3/x", "1"])
    assert err.value.code == 2


def test_bad_zero_over_zero_exit_code_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["h1", "3", "0/0", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("name, exc, argv", [
    ("branch_knot", AssertionError("Conway form [-2q, 2s] gave b(7,3)"),
     ["branch-knot", "1", "-1"]),
    ("alexander_from_braid3", ArithmeticError("det(burau - I)(t - 1) was not divisible"),
     ["braid-alexander", "1 1 1"]),
])
def test_internal_check_failure_exit_code_3(capsys, monkeypatch, name, exc, argv):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, name, fail)
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert err == f"error: internal check failed: {exc}\n"


def test_h1_determinant_mismatch_exit_code_3(capsys, monkeypatch):
    # h1_transfer checks its order against |takahashi_determinant| before
    # it returns; a wrong determinant is an internal check failure
    from takahashi import manifolds

    monkeypatch.setattr(manifolds, "takahashi_determinant", lambda spec: 7)
    rc, out, err = run(capsys, "h1", "4", "3/2", "1")
    assert rc == 3
    assert out == ""
    assert err.startswith("error: internal check failed: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_division_by_zero_stays_a_usage_error(capsys, monkeypatch):
    def fail(*args):
        raise ZeroDivisionError("division by the zero polynomial")

    monkeypatch.setattr(cli, "alexander_from_braid3", fail)
    assert run(capsys, "braid-alexander", "1 1 1")[0] == 2


def test_h1_order_past_the_int_str_digit_limit(capsys):
    # |H_1(M_3(p, p))| for a 1500-digit p has over 4300 digits, the default
    # int <-> str limit from Python 3.10.7 on; main lifts the limit for its
    # own call, before parsing, and leaves the caller's setting as it was
    from takahashi.manifolds import h1_takahashi, normalize_spec

    p = "7" * 1500 + "/1"
    long_p = "7" * 5000  # H_1(M_1(long_p, 1)) = Z/long_p
    expected = h1_takahashi(normalize_spec(3, cli.rational_arg(p), cli.rational_arg(p))).order()
    assert expected > 10 ** 4300
    limited = hasattr(sys, "set_int_max_str_digits")
    saved = sys.get_int_max_str_digits() if limited else None
    try:
        if limited:
            sys.set_int_max_str_digits(4321)
        rc_text, out_text, _ = run(capsys, "h1", "3", p, p)
        rc_json, out_json, _ = run(capsys, "h1", "3", p, p, "--json")
        rc_long, out_long, _ = run(capsys, "h1", "1", long_p, "1", "--json")
        if limited:
            assert sys.get_int_max_str_digits() == 4321
            sys.set_int_max_str_digits(0)
        assert rc_text == rc_json == rc_long == 0
        assert int(out_text.split("order: ")[1]) == expected
        assert json.loads(out_json)["order"] == expected
        assert json.loads(out_long)["order"] == int(long_p)
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


def test_h1_negative_fraction_coefficient(capsys):
    # -2/3 is a coefficient, not an option, wherever --json stands
    from takahashi.manifolds import h1_takahashi, normalize_spec

    expected = h1_takahashi(normalize_spec(3, Rational(-2, 3), Rational(-1, 2)))
    for argv in (["h1", "3", "-2/3", "-1/2", "--json"],
                 ["h1", "--json", "3", "-2/3", "-1/2"],
                 ["h1", "--json", "--", "3", "-2/3", "-1/2"]):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        doc = json.loads(out)
        assert (doc["pq"], doc["rs"]) == ("2/-3", "1/-2")
        assert AbelianGroup(tuple(doc["torsion"]), doc["freeRank"]) == expected


def test_h1_negative_infinite_coefficient(capsys):
    rc, out, _ = run(capsys, "h1", "3", "1/0", "-inf")
    assert rc == 0
    assert out == run(capsys, "h1", "3", "1/0", "inf")[1]
    assert "M_3(inf, inf)" in out


def test_negative_coefficient_keeps_usage_errors(capsys):
    for argv in (["h1", "3", "-2/3"], ["h1", "3", "-2/3", "1", "--bogus"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


# ---------------------------------------------------------------- presentation

def test_presentation_smallest_case(capsys):
    rc, out, _ = run(capsys, "presentation", "1", "1", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 2
    assert len(doc["relators"]) == 2


def test_presentation_cyclic_fibonacci(capsys):
    rc, out, _ = run(capsys, "presentation", "3", "1", "-1", "--cyclic")
    assert rc == 0
    assert "z1 z2^-1 z1 z3^-1 z1" in out


def test_presentation_negative_coefficients(capsys):
    rc, out, _ = run(capsys, "presentation", "2", "-3/2", "1", "--cyclic", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["pq"], doc["cyclic"]) == ("3/-2", True)
    assert doc == json.loads(run(capsys, "presentation", "--cyclic", "--json", "--",
                                 "2", "-3/2", "1")[1])


def test_presentation_cyclic_needs_r_one(capsys):
    rc, out, err = run(capsys, "presentation", "2", "1", "2", "--cyclic")
    assert rc == 2
    assert "1/s" in err


def test_presentation_drops_zero_exponents(capsys):
    rc, out, _ = run(capsys, "presentation", "2", "0/1", "0/1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["relators"] == ["x1 x3^-1", "x2 x4^-1", "x3 x1^-1", "x4 x2^-1"]


# ------------------------------------------------------------------ branch-knot

def test_branch_knot_figure_eight(capsys):
    rc, out, _ = run(capsys, "branch-knot", "1", "-1")
    assert rc == 0
    assert "b(5,3)" in out
    assert "figure-eight" in out
    assert "[-2, -2]" in out


def test_branch_knot_trefoil_json(capsys):
    rc, out, _ = run(capsys, "branch-knot", "1", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["alpha"], doc["beta"]) == (3, 2)
    assert doc["conway"] == [-2, 2]
    assert doc["equivalent"] is True
    assert doc["note"] == "trefoil"


def test_branch_knot_unknot(capsys):
    rc, out, _ = run(capsys, "branch-knot", "2", "0")
    assert rc == 0
    assert "b(1,0)" in out
    assert "unknot" in out


# ------------------------------------------------------------------ cover-order

def test_cover_order_trefoil_double(capsys):
    rc, out, _ = run(capsys, "cover-order", "3", "1", "2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 3
    # reconstructs the emitting types exactly
    from takahashi.knotkit import TwoBridge, alexander_two_bridge, branched_cover_homology

    knot = TwoBridge(doc["alpha"], doc["beta"])
    group = AbelianGroup(tuple(doc["torsion"]), doc["freeRank"])
    assert branched_cover_homology(alexander_two_bridge(knot), doc["n"]) == group


def test_cover_order_infinite(capsys):
    rc, out, _ = run(capsys, "cover-order", "3", "1", "6")
    assert rc == 0
    assert "order: infinite" in out


def test_cover_order_rejects_links(capsys):
    rc, _, err = run(capsys, "cover-order", "4", "1", "2")
    assert rc == 2
    assert "odd" in err


# ------------------------------------------------------------- two-bridge-equiv

def test_equiv_strict_flag(capsys):
    rc, out, _ = run(capsys, "two-bridge-equiv", "7", "2", "7", "3", "--no-mirror", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert doc["mirror"] is False


# ------------------------------------------------------------- braid-alexander

def test_braid_alexander_figure_eight_json(capsys):
    rc, out, _ = run(capsys, "braid-alexander", "1 -2 1 -2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, -3, 1]
    assert doc["pretty"] == "t^2 - 3t + 1"


def test_braid_alexander_unknot(capsys):
    rc, out, _ = run(capsys, "braid-alexander", "1 2", "--json")
    assert rc == 0
    assert json.loads(out)["coefficients"] == [1]


def test_braid_alexander_rejects_non_knot(capsys):
    rc, _, err = run(capsys, "braid-alexander", "1")
    assert rc == 2
    assert "cycle type (2, 1)" in err
    rc, _, err = run(capsys, "braid-alexander", "1 1")
    assert rc == 2
    assert "cycle type (1, 1, 1)" in err


# ---------------------------------------------------------------- verify-paper

def test_verify_paper_passes(capsys):
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 0
    assert "0 failed" in out
    assert "unverified" in out


def test_verify_paper_json_contents(verify_paper_json):
    rc, out = verify_paper_json
    assert rc == 0
    doc = json.loads(out)
    by_id = {c["claimId"]: c for c in doc["claims"]}
    assert set(by_id) == {
        "EQ1-identity", "L1-grid", "P4-grid", "R1-braid-256", "R1-manifold-1296",
        "R1-manifold-15", "R1-rational-135", "SCHUBERT-2s2q", "SYM-grid",
    }
    assert doc["failures"] == 0
    assert by_id["R1-rational-135"]["status"] == "unverified-by-design"
    assert by_id["R1-manifold-1296"]["computed"] == "1296"
    for c in doc["claims"]:
        if c["claimId"] != "R1-rational-135":
            assert c["status"] == "pass"
    # round-trip into the report type
    reports = [
        ClaimReport(c["claimId"], c["description"], c["expected"], c["computed"], c["status"])
        for c in doc["claims"]
    ]
    assert reports == run_claims()


def test_verify_paper_deterministic(capsys, verify_paper_json):
    rc1, out1 = verify_paper_json
    rc2, out2, _ = run(capsys, "verify-paper", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_claim_ids_sorted(verify_paper_json):
    _, out = verify_paper_json
    ids = [c["claimId"] for c in json.loads(out)["claims"]]
    assert ids == sorted(ids)


def test_verify_paper_exit_code_1_on_failure(capsys, monkeypatch):
    from takahashi import claims

    def broken():
        return ClaimReport("ZZ-broken", "synthetic failing claim", "0", "1", "fail")

    monkeypatch.setattr(claims, "_CLAIMS", [broken])
    rc, out, _ = run(capsys, "verify-paper")
    assert rc == 1
    assert "1 failed" in out


@pytest.mark.parametrize("n, pq, rs, failing", [
    # M_n(1/-3, 1/-2) is the first spec of its orbit of four in grid order
    (1, Rational(1, -3), Rational(1, -2), {
        "L1-grid": "255 of 256 pairs agree; first failure at M_1(1/-3, 1/-2)",
        "SYM-grid": "1276 of 1280 specs invariant; first failure at M_1(1/-3, 1/-2)"}),
    (3, Rational(1, -3), Rational(1, -2), {
        "P4-grid": "244 of 245 points agree; first failure at M_3(1/-3, 1/-2)",
        "SYM-grid": "1276 of 1280 specs invariant; first failure at M_3(1/-3, 1/-2)"}),
    # an orbit of two, M_2(1, 1) and M_2(-1, -1), whose first spec in grid
    # order is the image, not the spec made wrong
    (2, Rational(1, 1), Rational(1, 1), {
        "P4-grid": "244 of 245 points agree; first failure at M_2(1, 1)",
        "SYM-grid": "1278 of 1280 specs invariant; first failure at M_2(1/-1, 1/-1)"}),
    # an infinite coefficient, which P4 and L1 do not reach at n = 4
    (4, Rational(1, 0), Rational(2, 3), {
        "SYM-grid": "1276 of 1280 specs invariant; first failure at M_4(inf, 2/-3)"}),
])
def test_failing_grid_claim_names_its_first_failing_point(capsys, monkeypatch, n, pq, rs, failing):
    # H_1 made wrong at M_n(pq, rs), and the EQ1 identity made to fail at
    # one point
    from takahashi import claims
    from takahashi.manifolds import normalize_spec

    bad_spec = normalize_spec(n, pq, rs)
    real_h1, real_identity = claims.h1_takahashi, claims.relator_identity_check

    def wrong_h1(spec):
        g = real_h1(spec)
        return AbelianGroup(g.torsion, g.free_rank + 1) if spec == bad_spec else g

    def wrong_identity(*point):
        return point != (2, -1, 3, 2) and real_identity(*point)

    monkeypatch.setattr(claims, "h1_takahashi", wrong_h1)
    monkeypatch.setattr(claims, "relator_identity_check", wrong_identity)
    expected = dict(failing)
    expected["EQ1-identity"] = "1469 of 1470 identities hold; first failure at (2, -1, 3, 2)"
    rc, out, _ = run(capsys, "verify-paper", "--json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["failures"] == len(expected)
    for c in doc["claims"]:
        if c["claimId"] in expected:
            assert (c["status"], c["computed"]) == ("fail", expected[c["claimId"]])
        else:
            assert c["status"] != "fail"


def test_grid_claim_report():
    from takahashi.claims import _grid_claim

    passing = _grid_claim("X", "d", "pairs equivalent", [((1, 2), True), ((3, 4), True)])
    assert passing == ClaimReport("X", "d", "2 of 2 pairs equivalent",
                                  "2 of 2 pairs equivalent", "pass")
    failing = _grid_claim("X", "d", "pairs equivalent",
                          [((1, 2), True), ((3, 4), False), ((5, 6), False)])
    assert failing == ClaimReport("X", "d", "3 of 3 pairs equivalent",
                                  "1 of 3 pairs equivalent; first failure at (3, 4)", "fail")


# -------------------------------------------------------------- conjecture-scan

def test_conjecture_scan_json(capsys):
    rc, out, _ = run(capsys, "conjecture-scan", "--grid-max", "1", "--n-max", "2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["gridMax"] == 1 and doc["nMax"] == 2
    assert doc["rows"]
    for row in doc["rows"]:
        assert set(row) == {"n", "pq", "rs", "torsion", "freeRank", "order", "pOneROne"}
    marked = [r for r in doc["rows"] if r["pOneROne"]]
    assert marked
    for r in marked:
        assert cli.rational_arg(r["pq"]).num == 1
        assert cli.rational_arg(r["rs"]).num == 1


def test_conjecture_scan_text(capsys):
    rc, out, _ = run(capsys, "conjecture-scan", "--grid-max", "1", "--n-max", "2")
    assert rc == 0
    assert "p=1=r" in out


@pytest.mark.parametrize("option, value", [("--n-max", "1"), ("--n-max", "0"),
                                           ("--grid-max", "0"), ("--grid-max", "-1")])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_conjecture_scan_rejects_an_empty_grid(capsys, option, value, json_flag):
    rc, out, err = run(capsys, "conjecture-scan", option, value, *json_flag)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {option} must be at least ")
    assert err.count("\n") == 1
