"""Shared fixtures: the catalog of orders exercised throughout the suite,
the brute-force oracles of wilson.group_sum, the unit masks and the ideal
lattices, and a bounded CLI runner."""

import itertools
import json
import os
import subprocess
import sys

import pytest

import wilsonprod
from wilsonprod import lattice
from wilsonprod.order import make_order

# name -> defining polynomial (constant first).  All are maximal orders:
#   rational    Z                    (degree 1)
#   gaussian    Z[i]                 2 ramified, e=2 f=1
#   sqrt2       Z[sqrt 2]            2 ramified, e=2 f=1
#   eisenstein  Z[w], w^2+w+1=0      2 inert,    e=1 f=2
#   golden      Z[phi], phi^2=phi+1  2 inert,    e=1 f=2
#   zeta8       Z[z], z^8=1 prim.    2 totally ramified, e=4 f=1
CATALOG_POLYS = {
    "rational": (0, 1),
    "gaussian": (1, 0, 1),
    "sqrt2": (-2, 0, 1),
    "eisenstein": (1, 1, 1),
    "golden": (-1, -1, 1),
    "zeta8": (1, 0, 0, 0, 1),
}


@pytest.fixture(scope="session")
def catalog():
    return {name: make_order(poly) for name, poly in CATALOG_POLYS.items()}


@pytest.fixture(scope="session")
def zi(catalog):
    return catalog["gaussian"]


def group_sum_enumerated(spec):
    """Brute-force sum over every element of the group; the oracle for
    group_sum."""
    totals = [0] * len(spec.cyclic_orders)
    for el in itertools.product(*(range(n) for n in spec.cyclic_orders)):
        for i, c in enumerate(el):
            totals[i] += c
    return tuple(t % n for t, n in zip(totals, spec.cyclic_orders))


def is_unit(ring, x):
    """Does the class ``x`` of ``ring`` lie outside every prime divisor of
    its modulus?  The scalar oracle for the unit masks."""
    return all(not lattice.contains(ring.context.basis(((pd, 1),)), x.coeffs)
               for pd, _ in ring.modulus.factors)


def principal_lattice(o, a):
    """HNF basis of the lattice of the principal ideal (a), a != 0."""
    rows, cur = [], a
    for _ in range(o.degree):
        rows.append(list(cur.coeffs))
        cur = o.mul(cur, o.theta)
    return lattice.rows_hnf(rows, o.degree)


def lattice_product(o, a_basis, b_basis):
    """Basis of the product ideal, from pairwise products of basis elements:
    d^2 order multiplications, the oracle for the bases of OrderContext."""
    d = o.degree
    rows = []
    elems_b = [o.element(r) for r in b_basis]
    for ra in a_basis:
        ea = o.element(ra)
        for eb in elems_b:
            rows.append(list(o.mul(ea, eb).coeffs))
    return lattice.rows_hnf(rows, d)


def power_lattice(o, pd, n):
    """Lattice of P^n for the prime ideal P = (p, g(theta)), n >= 1.

    Generated as a Z-module by p^i * g(theta)^(n-i) * theta^j over
    0 <= i <= n, 0 <= j < d: the oracle for the two-generator lattices.
    """
    d = o.degree
    g = o.element_from_poly(pd.gen_poly)
    rows = []
    g_pow = o.one
    powers = [g_pow]
    for _ in range(n):
        g_pow = o.mul(g_pow, g)
        powers.append(g_pow)
    for i in range(n + 1):
        cur = o.mul(powers[n - i], o.from_int(pd.p ** i))
        for _ in range(d):
            rows.append(list(cur.coeffs))
            cur = o.mul(cur, o.theta)
    return lattice.rows_hnf(rows, d)


_BOUNDED_MAIN = """\
import contextlib, io, json, resource, sys, time
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from wilsonprod import cli
if sys.argv[2:3] == ["--batch"]:  # argv lists as JSON on stdin
    out = []
    for argv in json.load(sys.stdin):
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        out.append((code, buf.getvalue(), time.perf_counter() - t))
    json.dump(out, sys.stdout)
else:
    sys.exit(cli.main(sys.argv[2:]))
"""


def _run_bounded(args, stdin, timeout, memory, what):
    src = os.path.dirname(os.path.dirname(wilsonprod.__file__))
    # numpy's BLAS reserves address space per thread, which on a machine
    # with many cores could use up the limit before the CLI runs
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        return subprocess.run(
            [sys.executable, "-c", _BOUNDED_MAIN, str(memory), *args],
            input=stdin, capture_output=True, text=True, timeout=timeout,
            env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"cli {what[:120]} ran past {timeout} s")


def run_cli_bounded(*argv, timeout=10.0, memory=1 << 30):
    """``cli.main(argv)`` in a child process, as (exit code, stdout).

    The child gets ``memory`` bytes of address space, set in the child
    itself, and ``timeout`` seconds of wall clock, after which it is killed
    and the test fails.  For inputs that could hang or grow without bound:
    a regression on them fails in seconds and leaves the test process as
    it was.
    """
    proc = _run_bounded(argv, None, timeout, memory, " ".join(argv))
    return proc.returncode, proc.stdout


def run_cli_batch_bounded(argvs, timeout=10.0, memory=1 << 30):
    """``cli.main(argv)`` for each of ``argvs`` in turn, in one child
    process bounded as in run_cli_bounded, which saves a process start per
    call; as one (exit code, stdout, seconds) triple per argv.  An argparse
    usage error gives its exit code and an empty stdout.
    """
    proc = _run_bounded(["--batch"], json.dumps(argvs), timeout, memory,
                        f"batch of {len(argvs)}, from {argvs[:1]}")
    if proc.returncode:
        pytest.fail(f"batch child failed: {proc.stderr[-2000:]}")
    return [tuple(r) for r in json.loads(proc.stdout)]
