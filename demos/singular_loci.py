"""Where Schubert varieties are singular, and how Richardson loci follow.

The singular locus of a Richardson variety is the union of (singular
Schubert locus meet the opposite variety) and (Schubert variety meet
singular opposite locus); at a fixed point that is a plain conjunction of
smoothness flags.  Globally, X_w is smooth exactly when w avoids the
patterns 4231 and 3412 - the script checks the machine-computed table
against the pattern criterion for all of S4.

Run:  python demos/singular_loci.py
"""

from richardson import Permutation, bruhat_interval, schubert_invariants
from richardson.verify import pattern_smooth, verify_factorization

print("w in S4 | smooth everywhere (computed) | avoids 4231 & 3412")
print("-" * 60)
ident = Permutation.identity(4)
for w in Permutation.all(4):
    computed = all(
        schubert_invariants(w, sigma).smooth for sigma in bruhat_interval(ident, w)
    )
    patterns = pattern_smooth(w)
    marker = "   MISMATCH" if computed != patterns else ""
    print(f"{str(w):>7} | {str(computed):>28} | {str(patterns):>19}{marker}")

print()
v = Permutation.from_string("1234")
w = Permutation.from_string("3412")
rep = verify_factorization(v, w, "smooth")
print(f"singular-locus conjunction on [{v}, {w}]: "
      f"{rep.cases} fixed points, {len(rep.failures)} failures")
