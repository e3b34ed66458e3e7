"""Random and malformed CLI requests: every one gets a bounded answer.

Each example is a batch of requests run through ``cli.main`` in one child
process (``run_cli_batch_bounded``).  A request must answer within
CALL_SECONDS with exit 0 or 1, or with exit 2 and one JSON error whose type
is not ``internal_error`` (a stray exception) or ``invariant_violation``.
"""

import json

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from wilsonprod.order import poly_str

from conftest import run_cli_batch_bounded

CALL_SECONDS = 3.0
DEFECTS = ("internal_error", "invariant_violation")

coefficients = st.one_of(st.integers(-9, 9),
                         st.integers(-(1 << 70), 1 << 70))


def weighted(*pairs):
    """One of the strategies, each drawn ``weight`` times as often."""
    return st.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(
        lambda s: s)


@st.composite
def polynomials(draw):
    """Degree 0-12, constant first: monic or not, products of two (so
    reducible), or garbage; in the list or the symbolic form."""
    kind = draw(st.sampled_from(["monic"] * 4 + ["any", "product",
                                                 "garbage"]))
    if kind == "garbage":
        return draw(st.text("x^0123456789+-*, @;", min_size=0, max_size=12))
    if kind == "product":
        a = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6)) + [1]
        b = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6)) + [1]
        coeffs = [sum(a[i] * b[k - i] for i in range(len(a))
                      if 0 <= k - i < len(b))
                  for k in range(len(a) + len(b) - 1)]
    else:
        small = draw(st.booleans())
        coeffs = draw(st.lists(st.integers(-9, 9) if small else coefficients,
                               min_size=draw(st.sampled_from([1] + [2] * 6)),
                               max_size=13))
        if kind == "monic":
            coeffs[-1] = 1
    if draw(st.booleans()):
        return ",".join(map(str, coeffs))
    return poly_str(coeffs)


PRIMES = weighted((8, st.sampled_from([2, 3, 5, 7, 11, 13])),
                  (1, st.sampled_from([4, 1, 0, 10**18 + 3, 10**18 + 9,
                                       2**61 - 1])))


@st.composite
def ideal_labels(draw):
    """Well-formed labels p^m and p^m@i, with @ indices out of range and
    huge exponents among them, or garbage."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.text("0123456789^@; x", min_size=0, max_size=12))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(PRIMES)
        m = draw(weighted((8, st.integers(1, 6)), (1, st.just(0)),
                          (1, st.integers(10**6, 10**30))))
        at = draw(weighted((3, st.just("")),
                           (1, st.integers(0, 14).map(lambda i: f"@{i}"))))
        terms.append(f"{p}^{m}{at}")
    return "; ".join(terms)


def ints(lo, hi):
    """An integer flag's value in [lo, hi], or now and then text that is
    not one."""
    return weighted((6, st.integers(lo, hi).map(str)),
                    (1, st.sampled_from(["", "abc", "1e3", "2.5", "0x10"])))


@st.composite
def requests(draw):
    cmd = draw(st.sampled_from(["factor", "classify", "verify", "sweep"]))
    argv = [cmd, "--poly=" + draw(polynomials())]
    if cmd == "factor":
        argv.append(f"--prime={draw(PRIMES)}")
    elif cmd == "sweep":
        # the cap bounds the sweep: about as many rings as ideals of norm
        # at most the cap
        argv += [f"--max-norm={draw(ints(-10, 10**20))}",
                 f"--cap={draw(ints(-2, 1 << 9))}"]
    else:
        if draw(st.integers(0, 3)):
            argv.append("--ideal=" + draw(ideal_labels()))
        else:
            argv.append("--gen=" + draw(polynomials()))
        if draw(st.booleans()):
            argv.append(f"--cap={draw(ints(-2, 1 << 20))}")
    if draw(st.booleans()):
        argv.append("--output=json")
    return argv


@given(st.lists(requests(), min_size=16, max_size=16))
# no shrinking: each step would rerun a batch, and the assertion names
# the request that failed
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_fuzzed_requests_get_bounded_typed_answers(batch):
    results = run_cli_batch_bounded(batch, timeout=30.0)
    for argv, (code, out, seconds) in zip(batch, results):
        assert seconds < CALL_SECONDS, argv
        assert code in (0, 1, 2), argv
        if code == 2:
            error = json.loads(out)["error"]
            assert error["type"] not in DEFECTS, (argv, error)
