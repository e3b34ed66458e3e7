"""The committed mutant list, and a runner that checks the unit tests kill it.

Each mutant replaces one string of a module of ``src/wilsonprod`` by
another; ``old`` must occur exactly once in its file, which
``test_source.py`` checks on every run.  A mutant marked equivalent changes
no answer the package can give, and its ``why`` carries the argument.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 18       # mutants 3 and 18, by index

Run from the root of a checkout.  For each mutant the runner copies
``src/`` to a temporary directory, applies the mutant there, and runs
UNIT_FILES with ``pytest -x`` against the copy.  A mutant is killed when a
test fails (or the run passes its time limit) and survives when every test
passes; the runner prints one line per mutant, with the time it took, and a
summary.  Pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNIT_FILES = ("tests/test_wilson.py", "tests/test_residue.py",
              "tests/test_order.py", "tests/test_primes.py",
              "tests/test_modpoly.py")
# a mutant that makes the tests hang is killed once they run this long
TIME_LIMIT = 900


class Mutant(NamedTuple):
    file: str  # under src/wilsonprod
    old: str
    new: str
    why: str
    equivalent: bool = False


MUTANTS = (
    # the local rules
    Mutant("wilson.py", "    if n <= 2 * e:\n", "    if n <= 2 * e + 1:\n",
           "d2_local: the stable value starts one exponent late"),
    Mutant("wilson.py", "return f * (n // 2)", "return f * ((n + 1) // 2)",
           "d2_local: f*ceil(n/2) below the stable range"),
    Mutant("wilson.py", "return f * (n // 2)", "return (f * n) // 2",
           "d2_local: floor(f*n/2), which differs for odd n and f > 1"),
    Mutant("wilson.py", "return 1 + e * f", "return e * f + min(e, f)",
           "d2_local: a wrong stable value"),
    Mutant("wilson.py",
           "        return ProductClass.ONE_PLUS_PI\n",
           "        return ProductClass.ONE_PLUS_PI_SQ\n",
           "order2_local names 1+pi^2 for n = 2"),
    # the walk and the tree
    Mutant("residue.py", "        live -= h\n", "        live = h\n",
           "the tree drops the columns past the first half"),
    Mutant("residue.py", "live = max(live, w)", "live = w",
           "the walk forgets live columns after a short part"),
    Mutant("residue.py", "pd.p ** -(-m // pd.e) for",
           "pd.p ** (m // pd.e) for",
           "the exponent, and the basis's p^s, with s = max floor(m/e)"),
    Mutant("residue.py", "return math.lcm(*(pd.p", "return math.gcd(*(pd.p",
           "s = min ceil(m/e) over the factors above p, not max (gcd for "
           "lcm), and an exponent of 1 for a product of distinct primes"),
    Mutant("residue.py", "_LANES = ((np.int32, 1 << 30)",
           "_LANES = ((np.int32, 1 << 36)",
           "an int32 lane bound that lets sums wrap around"),
    Mutant("residue.py", "            r[m] += c[d + t]\n",
           "            r[m] -= c[d + t]\n",
           "a fold term of coefficient 1 taken with the wrong sign"),
    Mutant("residue.py", "d * e * e * grow < safe)", "d * e * e < safe)",
           "defer_mod without the factor by which the fold grows sums"),
    Mutant("residue.py", "enumerate(self.diag) if h > 1)",
           "enumerate(self.diag) if h > 2)",
           "the live rows of _np_mul leave out the axes of pivot 2"),
    Mutant("residue.py", "        c[top:] = 0\n", "        pass\n",
           "_np_mul leaves the convolution rows past the last live row "
           "as the work buffer held them"),
    Mutant("residue.py", "        elif zero:\n", "        elif False:\n",
           "_np_coords leaves stale rows for axes of length 1"),
    Mutant("residue.py", "grow = 1 + max(", "grow = max(",
           "equivalent: the lane bound (2d+4)*e^2 < B leaves d*e^2 < B/2 "
           "spare, which covers the d*e^2 the '1 +' adds to a folded sum "
           "(d*e^2*(1 + s) < B/2 + B) and to a row of the structure tensor "
           "(e^2*(d + (d-1)*s) likewise), so with B = 2^30 and 2^62 no sum "
           "reaches 2^31 or 2^63 and nothing wraps",
           equivalent=True),
    Mutant("residue.py", "            fold[m, d + t] = coef\n",
           "            fold[m, d + t] = 0\n",
           "the structure tensor built without its fold columns"),
    Mutant("residue.py", "if defer_mod and d ** 3 <= NARROW else None",
           "if d ** 3 <= NARROW else None",
           "the narrow tree levels taken when defer_mod is false"),
    Mutant("residue.py", "        _np_mod(c[d:], n, out=c[d:], work=prod)\n",
           "        pass\n",
           "_np_mul without defer_mod folds rows it has not reduced"),
    # the census, lifted through the factors of a
    Mutant("residue.py", "basis[i][i] // prev[i][i]", "basis[i][i]",
           "_roots lifts by the whole box of a_(i+1), not a_i/a_(i+1)"),
    Mutant("residue.py", "                prev = basis\n", "",
           "_roots never advances the previous basis past o"),
    Mutant("residue.py", "_np_reduce(sq, basis, e, one)",
           "_np_reduce(sq, basis, e, self._one_coeffs)",
           "_roots tests the squares against the ring's 1, not a_(i+1)'s"),
    Mutant("residue.py", "return sorted(lattice.reduce_mod(self.basis, r)\n",
           "return list(lattice.reduce_mod(self.basis, r)\n",
           "_roots returns the roots in lift order, not box order"),
    Mutant("residue.py",
           "while j + k < m and n * q ** (k + 1) <= block:",
           "while False:",
           "equivalent: a step of k = 1 lifts the roots mod a_i through the "
           "classes of a_i/a_i*P, which holds for every k, so each P^m is "
           "taken in m steps and the same roots come out of the last one",
           equivalent=True),
    # the lattices
    Mutant("lattice.py", "q = out[k][pc] // row[pc]", "q = 0",
           "rows_hnf leaves the entries above a pivot unreduced"),
    Mutant("lattice.py", "[[n2 * c for c in r] for r in a_basis]",
           "[[n1 * c for c in r] for r in a_basis]",
           "comaximal_product scales L1 by its own index, not by N2"),
    Mutant("lattice.py", "if math.gcd(n1, n2) != 1:", "if False:",
           "comaximal_product joins ideals of indices not coprime"),
    # the two-generator lattices above one prime
    Mutant("primes.py", "    if pd.e == 1 and lattice.contains(",
           "    if False and lattice.contains(",
           "uniformizer takes g(theta) at e = 1 without the P^2 test"),
    Mutant("residue.py", "pi = self.uniformizer(pd) if pd.p ** m < q ** pd.e",
           "pi = self.uniformizer(pd) if False",
           "basis takes g(theta) at every factor, where v_P(q) > m too"),
    Mutant("primes.py", "pd.p ** -(-k // pd.e), x)", "pd.p ** (k // pd.e), x)",
           "valuation's P^k from p^floor(k/e), not p^ceil(k/e)"),
    # polynomials mod p
    Mutant("modpoly.py", "while degree(g) >= 2 * (k + 1):",
           "while degree(g) > 2 * (k + 1):",
           "distinct_degree stops one degree early and keeps a product of "
           "two factors of degree k+1 as one"),
    Mutant("modpoly.py", "found[g] = found.get(g, 0) + m",
           "found[g] = found.get(g, 0) + 1",
           "factor drops the multiplicity of a repeated factor"),
    # the sweep and the primality test
    Mutant("wilson.py", "for p in range(2, prime_bound + 1):",
           "for p in range(2, prime_bound):",
           "sweep_ideals skips the prime bound itself (13)"),
    Mutant("wilson.py", "if nm > max_norm:", "if nm >= max_norm:",
           "sweep_ideals drops the ideals of norm exactly max_norm"),
    Mutant("primes.py", "29, 31, 37, 41)", "29, 31, 37)",
           "Miller-Rabin without the base 41, which PRIME_MAX assumes"),
    # the witness at a composite modulus
    Mutant("wilson.py", "o.element_from_poly(q.gen_poly)",
           "o.element_from_poly(pd.gen_poly)",
           "witness_element: x_Q = g_P(theta), which lies in P"),
    Mutant("wilson.py", "_power(ring.reduce(x_q), n)", "ring.reduce(x_q)",
           "witness_element: u takes x_Q, not x_Q^n, so u^k may miss Q^n"),
    Mutant("wilson.py", "(pd.residue_size - 1)\n",
           "(pd.residue_size - 1) - 1\n",
           "witness_element: u^(k-1), which is not 1 mod P^m"),
    Mutant("wilson.py", " * (pd.residue_size - 1)\n", "\n",
           "witness_element: k without the factor q-1 of the unit count"),
    Mutant("wilson.py", "        if q != pd:\n", "        if True:\n",
           "witness_element: u taken over P too, so t lies in P"),
)


def run(index: int, mutant: Mutant) -> tuple[str, float]:
    """(outcome, seconds) of the unit files against ``mutant``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "wilsonprod", mutant.file)
        with open(path) as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "stale", 0.0
        with open(path, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *UNIT_FILES],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            return "killed (time limit)", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
    if proc.returncode == 1:
        return "killed", seconds
    if proc.returncode == 0:
        return "survived", seconds
    return f"error (pytest exit {proc.returncode})", seconds


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = errors = 0
    for i in picked:
        m = MUTANTS[i]
        outcome, seconds = run(i, m)
        note = " [equivalent]" if m.equivalent else ""
        print(f"{i:2d} {outcome:<20} {seconds:6.1f} s  {m.file}: "
              f"{m.why[:70]}{note}", flush=True)
        if outcome == "survived" and not m.equivalent:
            survivors += 1
        elif outcome == "stale" or outcome.startswith("error"):
            errors += 1
    print(f"{len(picked)} mutants: {survivors} non-equivalent survived, "
          f"{errors} stale or failed to run")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
