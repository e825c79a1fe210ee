"""A fixed task that gauges how fast the machine runs Python right now.

usage: python3 perfbench/reference.py

run.py times this process next to every CLI call and divides the call's
times by it (see run.py).  Like a CLI call, it starts an interpreter and
imports ``fractions``; then it evaluates a fixed integer polynomial at a
rational point by Horner's rule, as the package evaluates independence
polynomials.  It imports nothing from the package, so its cost changes
with the machine, never with the code under test.  It prints the value,
which never changes.

Of the reference tasks tried (this one; bitmask recursion; sorting and
hashing 150k tuples; the CLI's own start-up), this one tracked the
host's slow and fast phases best across all workloads.
"""

from fractions import Fraction

COEFFS = range(1, 40)  # 1 + 2x + ... + 39x^38
POINT = Fraction(-3, 7)
ROUNDS = 400


def main() -> None:
    for _ in range(ROUNDS):
        value = Fraction(0)
        for c in reversed(COEFFS):
            value = value * POINT + c
    print(value)


if __name__ == "__main__":
    main()
