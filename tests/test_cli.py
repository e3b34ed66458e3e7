"""CLI subcommands driven through main(argv), checking text/json parity."""

import json
import time

import pytest

from wilsonprod import cli, order, residue
from wilsonprod.cli import main
from wilsonprod.primes import IDEAL_NORM_BITS_MAX

from conftest import run_cli_bounded


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--output", "json")
    return code, json.loads(out)


# -- factor -------------------------------------------------------------------

def test_factor_text(capsys):
    code, out = run(capsys, "factor", "--poly", "x^2+1", "--prime", "2")
    assert code == 0
    assert "maximal at 2: yes" in out
    assert "e = 2, f = 1" in out


def test_factor_json_split(capsys):
    code, doc = run_json(capsys, "factor", "--poly", "x^2+1", "--prime", "5")
    assert code == 0
    assert doc["maximal"] is True
    assert len(doc["factors"]) == 2
    assert [f["label"] for f in doc["factors"]] == ["5", "5@1"]


def test_factor_non_maximal_is_json_error(capsys):
    code, out = run(capsys, "factor", "--poly", "x^2+3", "--prime", "2")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "non_maximal_order"


def test_factor_rejects_composite_prime(capsys):
    code, out = run(capsys, "factor", "--poly", "x^2+1", "--prime", "6")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "not_prime"


@pytest.mark.parametrize("argv,kind", [
    # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
    (("factor", "--poly", "x^2+1", "--prime", "318665857834031151167461"),
     "not_prime"),
    (("verify", "--poly", "x^2+1", "--ideal", "318665857834031151167461^1"),
     "parse_error"),
    # even, and above PRIME_MAX: a base divides it, which decides it
    (("factor", "--poly", "x^2+1", "--prime", str(10 ** 30)), "not_prime"),
    (("verify", "--poly", "x^2+1", "--ideal", f"{10 ** 30}^1"),
     "parse_error"),
])
def test_composites_are_not_prime(argv, kind):
    code, out = run_cli_bounded(*argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == kind


@pytest.mark.parametrize("argv", [
    ("factor", "--poly", "x^2+1", "--prime", str(10 ** 999 + 7)),
    ("verify", "--poly", "x^2+1", "--ideal", f"{10 ** 999 + 7}^1"),
])
def test_prime_beyond_the_test_is_refused(capsys, argv):
    # 10^999 + 7, a prime of 1,000 digits: refused before any work on it
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"]["type"] == "prime_too_large"


def test_bad_poly_is_parse_error(capsys):
    code, out = run(capsys, "classify", "--poly", "zebra", "--ideal", "2^1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse_error"


# -- classify -----------------------------------------------------------------

def test_classify_json(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "x^2+1",
                         "--ideal", "2^2")
    assert code == 0
    assert doc["class"] == "one_plus_pi"
    assert doc["witness"] == [0, 1]
    assert doc["prime"]["prime"] == 2
    assert doc["ideal"] == "2^2"
    assert doc["d2"] == 1


def test_classify_beyond_cap(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "x", "--ideal", "2^21")
    assert code == 0
    assert doc["class"] == "one"
    assert doc["witness"] is None


def test_classify_needs_an_ideal(capsys):
    code, out = run(capsys, "classify", "--poly", "x^2+1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse_error"


def test_classify_gen_route(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "x", "--gen", "7")
    assert code == 0
    assert doc["class"] == "minus_one"
    assert doc["witness"] == [6]
    assert doc["ideal"] == "7^1"


# -- verify ---------------------------------------------------------------------

def test_verify_match_text(capsys):
    code, out = run(capsys, "verify", "--poly", "x^2+1", "--ideal", "2^2")
    assert code == 0
    assert "MATCH" in out and "MISMATCH" not in out


def test_verify_json_verdict_parity(capsys):
    code_t, out = run(capsys, "verify", "--poly", "x", "--ideal", "7^1")
    code_j, doc = run_json(capsys, "verify", "--poly", "x", "--ideal", "7^1")
    assert code_t == code_j == 0
    assert ("MATCH" in out) == (doc["verdict"] == "MATCH")
    assert doc["match"] is True
    assert doc["product"] == [6]


def test_verify_dump(capsys):
    code, doc = run_json(capsys, "verify", "--poly", "x", "--ideal", "2^2",
                         "--dump")
    assert code == 0
    ring = doc["ring"]
    assert ring["size"] == 4
    assert ring["units"] == [[1], [3]]
    assert ring["census"]["d2"] == 1
    assert ring["elements"] == [[0], [1], [2], [3]]


def test_verify_dump_walks_the_ring_twice(capsys, monkeypatch):
    # one walk for the product and census, one for the dump's units: the
    # dump takes the census verify already has
    walks = []
    units_array = residue.ResidueRing._units_array
    monkeypatch.setattr(residue.ResidueRing, "_units_array",
                        lambda ring: walks.append(ring) or units_array(ring))
    code, doc = run_json(capsys, "verify", "--poly", "x^2+1", "--ideal",
                         "5^2; 2^3", "--dump")
    assert code == 0 and doc["verdict"] == "MATCH"
    assert len(walks) == 2
    assert doc["ring"]["census"]["solutions"] == doc["census"]["solutions"]


def test_verify_dump_cap(capsys, monkeypatch):
    # refused before any enumeration, in both output modes
    code, out = run(capsys, "verify", "--poly", "x^2+1", "--ideal", "2^17",
                    "--dump")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "dump_too_large",
        "message": "|o/a| = 131072 is above the dump cap 65536"}
    monkeypatch.setattr(cli, "DUMP_CAP", 8)
    code, doc = run_json(capsys, "verify", "--poly", "x", "--ideal", "2^3",
                         "--dump")
    assert code == 0 and doc["ring"]["size"] == 8
    code, doc = run_json(capsys, "verify", "--poly", "x", "--ideal", "3^2",
                         "--dump")
    assert code == 2 and doc["error"]["type"] == "dump_too_large"


def test_verify_ring_too_large(capsys):
    code, out = run(capsys, "verify", "--poly", "x", "--ideal", "2^21")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ring_too_large"


# -- cap resolution ---------------------------------------------------------------

def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("WILSON_CAP", "4")
    code, doc = run_json(capsys, "classify", "--poly", "x", "--ideal", "2^3")
    assert code == 0
    assert doc["witness"] is None  # 8 > env cap 4


def test_flag_overrides_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("WILSON_CAP", "4")
    code, doc = run_json(capsys, "classify", "--poly", "x", "--ideal", "2^3",
                         "--cap", "1024")
    assert code == 0
    assert doc["witness"] == [1]


def test_garbage_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("WILSON_CAP", "many")
    code, out = run(capsys, "classify", "--poly", "x", "--ideal", "2^1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse_error"


def test_tiny_cap_rejected(capsys):
    code, out = run(capsys, "classify", "--poly", "x", "--ideal", "2^1",
                    "--cap", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse_error"


# -- sweep ------------------------------------------------------------------------

def test_sweep_trivial_bound(capsys):
    code, doc = run_json(capsys, "sweep", "--poly", "x^2+1",
                         "--max-norm", "1")
    assert code == 0
    assert doc["cases"] == 0
    assert doc["ok"] is True


def test_sweep_small(capsys):
    code, doc = run_json(capsys, "sweep", "--poly", "x^2+1",
                         "--max-norm", "256")
    assert code == 0
    assert doc["ok"] is True
    assert doc["mismatches"] == []
    assert doc["cases"] > 20
    assert doc["classes"]["one_plus_pi"] == 1


# -- gauss ------------------------------------------------------------------------

def test_gauss_table(capsys):
    code, doc = run_json(capsys, "gauss", "--max-A", "30")
    assert code == 0
    assert doc["ok"] is True
    assert doc["minus_one"][:8] == [3, 4, 5, 6, 7, 9, 10, 11]
    assert 8 not in doc["minus_one"]
    assert 12 not in doc["minus_one"]


# -- cyclo-demo ---------------------------------------------------------------------

def test_cyclo_demo_t2(capsys):
    code, doc = run_json(capsys, "cyclo-demo", "--t", "2", "--n-max", "6")
    assert code == 0
    assert doc["ok"] is True
    assert [r["class"] for r in doc["rows"]] == \
        ["one", "one_plus_pi", "one_plus_pi_sq", "one", "one", "one"]
    assert all(r["match"] for r in doc["rows"])


def test_cyclo_demo_rejects_t1(capsys):
    code, out = run(capsys, "cyclo-demo", "--t", "1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse_error"


@pytest.mark.parametrize("t", ["9", "70"])
def test_cyclo_demo_rejects_large_t(capsys, t):
    # --t 70 would ask for a polynomial of degree 2^69
    code, out = run(capsys, "cyclo-demo", "--t", t)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "parse_error", "message": "--t must be at most 8"}


def test_cyclo_demo_refuses_n_past_the_cap_before_it_walks():
    # |o/P^21| = 2^21 is past the cap: the error comes before the twenty
    # rings of degree 128 below it are walked, which take far longer
    code, out = run_cli_bounded("cyclo-demo", "--t", "8", "--n-max", "21",
                                timeout=10)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ring_too_large",
        "message": "|o/a| = 2097152 exceeds the cap 1048576"}


def test_undecided_irreducibility_is_json_error(capsys, monkeypatch):
    monkeypatch.setattr(order, "SEARCH_BUDGET", 0)
    code, out = run(capsys, "classify", "--poly", "x^4+4", "--ideal", "2^1")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "irreducibility_undecided"


def test_unexpected_exception_is_json_error(capsys, monkeypatch):
    def broken(_):
        raise ZeroDivisionError("integer division by zero")

    monkeypatch.setattr(cli, "gauss_product", broken)
    code = cli.main(["gauss", "--max-A", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == {
        "type": "internal_error",
        "message": "ZeroDivisionError: integer division by zero"}
    assert "Traceback" in captured.err


def test_cyclo_demo_text(capsys):
    code, out = run(capsys, "cyclo-demo", "--t", "2", "--n-max", "4")
    assert code == 0
    assert "pattern verified" in out


@pytest.mark.parametrize("t", ["5", "8"])
def test_cyclo_demo_high_degree(capsys, t):
    # x^16+1 and x^128+1: make_order must prove them irreducible by
    # Eisenstein at 2 after x -> x+1 (they split mod every prime, so the
    # degree sieve cannot), and the unit mask must not need an axis per
    # degree (numpy arrays have at most 64)
    code, doc = run_json(capsys, "cyclo-demo", "--t", t, "--n-max", "4")
    assert code == 0
    assert doc["ok"] is True
    assert [r["class"] for r in doc["rows"]] == \
        ["one", "one_plus_pi", "one_plus_pi_sq", "one"]


def test_one_parser_serves_interleaved_requests(capsys, monkeypatch):
    # the parser is built once per process; requests of different
    # subcommands through it answer as through a fresh parser each
    requests = [
        ("classify", "--poly", "x^2+1", "--ideal", "2^2", "--output", "json"),
        ("factor", "--poly", "x^4+1", "--prime", "17"),
        ("verify", "--poly", "x^2-2", "--ideal", "2^3"),
        ("gauss", "--max-A", "12", "--output", "json"),
        ("classify", "--poly", "x^4+1", "--gen", "x+3"),
        ("verify", "--poly", "x", "--ideal", "2^21"),
        ("factor", "--poly", "x^2+1", "--prime", "5", "--output", "json"),
        ("sweep", "--poly", "x^2+x+1", "--max-norm", "50"),
        ("cyclo-demo", "--t", "2", "--n-max", "3"),
    ]
    assert cli.build_parser() is cli.build_parser()
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in requests]
    shared = [run(capsys, *argv) for argv in requests + requests[::-1]]
    assert shared == fresh + fresh[::-1]


# -- inputs that once hung or ended in internal_error -----------------------

LONG = "1" * 5000  # above Python's int-string limit of 4,300 digits


@pytest.mark.parametrize("argv", [
    ("classify", "--poly", "x^2+1", "--ideal", "2^99999999999999999999"),
    ("verify", "--poly", "x^2+1", "--ideal", "2^99999999999999999999"),
    ("verify", "--poly", "x^99999999+1", "--ideal", "2^1"),
    ("classify", "--poly", "x^2+1", "--gen", "x^99999999"),
    ("gauss", "--max-A", "99999999999"),
    ("classify", "--poly", "x^2+1", "--ideal", f"{LONG}^1"),
    ("classify", "--poly", "x^2+1", "--ideal", f"2^{LONG}"),
    ("classify", "--poly", f"x^2+{LONG}", "--ideal", "2^1"),
    ("classify", "--poly", f"x^{LONG}+1", "--ideal", "2^1"),
    ("classify", "--poly", "x^2+1", "--gen", f"{LONG}x+1"),
])
def test_unbounded_inputs_are_parse_errors(argv):
    code, out = run_cli_bounded(*argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse_error"


@pytest.mark.parametrize("argv", [
    ("factor", "--poly", "x", "--prime", "abc"),
    ("factor", "--poly", "x", "--prime", LONG),
    ("verify", "--poly", "x", "--ideal", "2^1", "--cap", "2**10"),
    ("sweep", "--poly", "x", "--max-norm", "1e3"),
    ("gauss", "--max-A", "12.0"),
    ("cyclo-demo", "--t", "two"),
    ("cyclo-demo", "--t", "2", "--n-max", "3x"),
])
def test_integer_flags_are_parse_errors(capsys, argv):
    # one JSON object on stdout, naming the flag, as for any bad input
    code, out = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "parse_error"
    assert error["message"].startswith(argv[-2] + " must be an integer")


@pytest.mark.parametrize("argv,kind", [
    # norms whose decimal form Python refuses to print
    (("verify", "--poly", "x^4+1", "--ideal", "2^300000"), "ring_too_large"),
    (("verify", "--poly", "x^2+1", "--ideal", "2^20000", "--dump"),
     "dump_too_large"),
    (("classify", "--poly", "x^2+1", "--gen", "1" * 4000 + "x+1"),
     "norm_too_large"),
])
def test_huge_norms_are_typed_errors(argv, kind):
    code, out = run_cli_bounded(*argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == kind


def test_a_walk_beyond_its_memory_bound_is_refused():
    # exponent 2^16, inside the lanes, but 2^31 box positions: refused
    # before any mask is made, so the child stays within its 1 GB
    ideal = ("--poly", "x^2+1", "--ideal", "2^31", "--cap", str(1 << 40))
    code, out = run_cli_bounded("verify", *ideal)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ring_too_large"
    assert str(residue.WALK_MAX) in error["message"]
    code, out = run_cli_bounded("classify", *ideal, "--output", "json")
    assert code == 0 and json.loads(out)["witness"] is not None


def test_classify_far_beyond_the_cap_answers():
    code, out = run_cli_bounded("classify", "--poly", "x^2+1", "--ideal",
                                "2^100000", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["class"], doc["d2"], doc["witness"]) == ("one", 3, None)


@pytest.mark.parametrize("argv,ok", [
    (("factor", "--poly", "1," + "0," * 127 + "1", "--prime", "2"), True),
    (("factor", "--poly", "1," + "0," * 128 + "1", "--prime", "2"), False),
    (("factor", "--poly", "x^129+x+1", "--prime", "2"), False),
    (("gauss", "--max-A", str(cli.GAUSS_MAX_A + 1)), False),
    (("classify", "--poly", "x", "--ideal", f"2^{IDEAL_NORM_BITS_MAX}"),
     True),
    (("classify", "--poly", "x", "--ideal",
      f"2^{IDEAL_NORM_BITS_MAX // 2}; 2^{IDEAL_NORM_BITS_MAX // 2 + 1}"),
     False),
    # 2 is inert in x^2+x+1, so 2^m has norm 4^m
    (("classify", "--poly", "x^2+x+1", "--ideal",
      f"2^{IDEAL_NORM_BITS_MAX // 2}"), True),
    (("classify", "--poly", "x^2+x+1", "--ideal",
      f"2^{IDEAL_NORM_BITS_MAX // 2 + 1}"), False),
])
def test_caps_are_inclusive(capsys, argv, ok):
    code, out = run(capsys, *argv, "--output", "json")
    doc = json.loads(out)
    if ok:
        assert code == 0 and "error" not in doc
    else:
        assert code == 2 and doc["error"]["type"] == "parse_error"
