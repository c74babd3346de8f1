"""Mutation kit: source mutants that the test suite must kill.

Each mutant replaces one piece of source text, which must occur exactly once
in its file, so a refactor that moves the code fails the kit, and the tier-1
test that runs ``check_texts``, until the mutant is re-pointed.  For each mutant
the kit copies the checkout (without .git and caches) to a temporary directory,
applies the mutant there and runs ``python -m pytest -x -q`` in the copy with
PYTHONPATH=src, without that test, which a mutated copy fails, so the copy's
source is the one imported (``pythonpath = ["src"]`` and an editable install
both point at the checkout).  It prints the test that killed each mutant and
the time taken, and exits 1 if any mutant survives.  Hypothesis's example
database is cleared before each run, so a verdict depends only on its mutant
and the fixed seed, not on the mutants run before it.  The standard library
alone; pytest's file name rule does not collect this file.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "*.egg-info", "build", ".bench_out")
#: The per-mutant limit; a suite that runs past it counts as failing.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    breaks: str


MUTANTS = [
    # bounds and verdicts that the tests once read only through their constants
    Mutant("src/bhhpm/config.py", "MAX_ORDERS = 100", "MAX_ORDERS = 101",
           "the documented bound of 100 orders"),
    Mutant("src/bhhpm/config.py", "MAX_PRECISION = 10000", "MAX_PRECISION = 10001",
           "the documented bound of 10000 digits"),
    Mutant("src/bhhpm/tables.py", 'MAGNITUDE_BAND = (mpf("0.1"), mpf("10"))',
           'MAGNITUDE_BAND = (mpf("0.05"), mpf("20"))',
           "a cell below SMALL_CELL must lie within a factor of 10 of its reference"),
    Mutant("src/bhhpm/cli.py", "if ratio >= 1:", "if ratio > 1.5:",
           "run warns once a grid t reaches the t-radius R(x)"),
    # the series kernel: each integer of every coefficient
    Mutant("src/bhhpm/hpm.py", "        if common % pair_den:",
           "        if False and common % pair_den:",
           "a pair whose denominator does not divide the running one rescales the sums"),
    Mutant("src/bhhpm/hpm.py", "                    total[j] += c * e\n",
           "                    total[j] += c * e + (sa * sb == 0 and i == 2 and j == 8)\n",
           "one integer of a row product that feeds one half"),
    Mutant("src/bhhpm/hpm.py", "                    total[j] += c * e\n",
           "                    total[j] += c * e + (total is line and i == 1 and j == 3)\n",
           "one integer of a product on the sum's line"),
    Mutant("src/bhhpm/hpm.py", "if sa * db != sb * da:", "if False:",
           "a product off the sum's line raises instead of being folded onto it inexactly"),
    Mutant("src/bhhpm/hpm.py", "[c * grow for c in b], [c * grow for c in line]",
           "[c * grow for c in b], line",
           "the line is rescaled with the two halves when the denominator grows"),
    Mutant("src/bhhpm/hpm.py", "        a[j] += da * c\n        b[j] += db * c\n",
           "        a[j] += da * c\n",
           "the line is added to the sqrt(d) half as well as to the rational one"),
    Mutant("src/bhhpm/hpm.py", "total, scale = (a, sa) if sa else (b, sb)",
           "total, scale = (a, sa) if sa else (b, 2 * sb)",
           "the scale of a product that feeds only the sqrt(d) half"),
    Mutant("src/bhhpm/hpm.py", "twice = [((2 * a, 2 * b, den, q), w)",
           "twice = [((a, b, den, q), w)",
           "the 2 on the off-diagonal pairs of the symmetric square"),
    Mutant("src/bhhpm/hpm.py", "-rate * alpha * Fraction(1, 2)", "-rate * alpha * Fraction(1, 3)",
           "the Burgers constant -alpha*rate/2 of N"),
    Mutant("src/bhhpm/hpm.py", "    _n_one(problem)\n    rate, alpha", "    rate, alpha",
           "a hand-built expansion of an n >= 2 problem is refused, not stepped with N of n = 1"),
    # the roundings of a surd coefficient, formed from its integers
    Mutant("src/bhhpm/scalars.py", "if n.bit_length() > exp + bc + prec + 4:", "if False:",
           "a sum whose integer outweighs the rounded surd keeps the rounding of mpf_add"),
    Mutant("src/bhhpm/scalars.py", "rem = rem or s[1] & ((1 << -extra) - 1)", "rem = rem",
           "the numerator bits below the quotient's top carry the sticky bit"),
    Mutant("src/bhhpm/scalars.py", "prec - s[3] + t[3] + 5",
           "prec - s[3] + t[3] + 5 - 6 * (s[3] > prec + t[3] + 5)",
           "a quotient from the numerator's top bits keeps prec + 4 or more bits"),
    Mutant("src/bhhpm/scalars.py", "shift + twos", "(shift if den % 2 else 0) + twos",
           "the one division is by den*2^shift when den is even"),
    Mutant("src/bhhpm/scalars.py", "shift + twos", "shift + twos + (twos > 0)",
           "the power of 2 in den joins the shift as it is, not one more"),
    # the one-normalize sum, product and quotient of two raw values
    Mutant("src/bhhpm/scalars.py", "normalize(ssign, man, sexp - prec - 4",
           "normalize(0, man, sexp - prec - 4",
           "a sum that keeps its smaller addend as a sticky bit takes the larger one's sign"),
    Mutant("src/bhhpm/scalars.py", "offset + sbc - tbc > prec + 4:", "offset + sbc - tbc > prec:",
           "a sum keeps the smaller addend exactly unless it lies past prec + 4 bits"),
    Mutant("src/bhhpm/scalars.py", "extra = prec - s[3] + t[3] + 5", "extra = prec - s[3] + t[3]",
           "the quotient keeps bits below the precision before its sticky bit"),
    Mutant("src/bhhpm/scalars.py", "s[0] ^ t[0], quot", "s[0], quot",
           "the quotient's sign is the product of its operands' signs"),
    # the powers of t, and the boundary that keeps non-finite values from the raw helpers
    Mutant("src/bhhpm/scalars.py", "if bc * k >= 1000:", "if False:",
           "past 1000 bits a power of t is mpf_pow_int's, whose partial powers truncate"),
    Mutant("src/bhhpm/scalars.py", "            power *= man\n", "            power = man\n",
           "the exact power of t advances by one factor of t's mantissa per k"),
    Mutant("src/bhhpm/scalars.py", "if not raw[1] and raw[2]:", "if False:",
           "a NaN or +-inf input raises instead of being read as zero"),
    # the problem's constants, the wave and the Taylor oracle
    Mutant("src/bhhpm/problem.py", "Fraction(s, dfrac.denominator)", "Fraction(s, 1)",
           "the root of a discriminant with a denominator"),
    Mutant("src/bhhpm/waves.py", "return mpf_neg(_product(", "return (_product(",
           "the wave's phase is x - speed*t + x0"),
    Mutant("src/bhhpm/waves.py", "tau = [1 / (1 + mpmath.exp(-z))], [1 / (1 + mpmath.exp(z))]",
           "tau = [1 / (1 + mpmath.exp(-z))], [1 - 1 / (1 + mpmath.exp(-z))]",
           "the oracle keeps its digits where sigma -> 1"),
]


def check_texts() -> list[str]:
    """One line for each mutant whose old text does not occur exactly once."""
    faults = []
    for number, m in enumerate(MUTANTS, 1):
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            faults.append(f"mutant {number} ({m.path}): old text occurs {count} times")
    return faults


def run_suite(tree: Path) -> tuple[int, str]:
    """pytest -x -q in ``tree``, on an empty example database: its exit code and
    the first failure it names."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # a mutated copy lacks its mutant's old text, which check_texts has already found once
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0",
               "--deselect", "tests/test_exports.py::test_every_mutant_text_occurs_once"]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    named = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (named or lines[-1:] or ["no output"])[0]


def main() -> int:
    faults = check_texts()
    if faults:
        print("\n".join(faults))
        return 1
    survived = []
    with tempfile.TemporaryDirectory(prefix="bhhpm-mutants-") as workdir:
        tree = Path(workdir) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        # the copy must import its own source, and pass unmutated
        where = subprocess.run([sys.executable, "-c", "import bhhpm; print(bhhpm.__file__)"],
                               cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                               capture_output=True, text=True).stdout.strip()
        if not Path(where).is_relative_to(tree):
            print(f"the copy imports bhhpm from {where or 'nowhere'}, not from {tree}")
            return 1
        start = time.perf_counter()
        code, first = run_suite(tree)
        print(f"unmutated: exit {code} in {time.perf_counter() - start:.1f} s", flush=True)
        if code != 0:
            print(f"the suite fails without a mutant: {first}")
            return 1
        for number, m in enumerate(MUTANTS, 1):
            target = tree / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            code, first = run_suite(tree)
            target.write_text(text, encoding="utf-8")
            verdict = "killed" if code != 0 else "SURVIVED"
            print(f"{number:2} {verdict} in {time.perf_counter() - start:5.1f} s  "
                  f"{m.path}: {m.breaks}\n   {first if code else ''}".rstrip(), flush=True)
            if code == 0:
                survived.append(number)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
