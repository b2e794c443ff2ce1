"""
A first look at the doubling chain
==================================

Grow the two-letter fixed point, read single letters straight from the
congruence description, and check the letter frequencies.
"""

from fractions import Fraction

from limitper import period_doubling as pd
from limitper.render import window_text

# The substitution sends a -> ab and b -> aa.  Iterating its square from the
# legal bi-infinite seed a|a doubles the visible patch twice per step.
for iterations in range(4):
    window = pd.pattern_window(iterations)
    print(f"after {iterations} iterations: {window_text(window, pd.doubled_system().alphabet)}", end="")

# Any single position is available without growing a patch: the letter at n
# is decided by which residue class 2 * 4^(i-1) - 1 (mod 4^i) captures n.
print()
print("letters at -4..3:", "".join("ab"[pd.label(n)] for n in range(-4, 4)))
print("letter at 10**18:", "ab"[pd.label(10**18)])

# The substitution matrix fixes the letter frequencies at 2/3 and 1/3; a
# finite window should agree to roughly one part per thousand.
window = pd.label_window(-(1 << 16), 1 << 16)
share_a = Fraction(int((window == pd.LETTER_A).sum()), window.size)
print(f"frequency of a in a 2^17 window: {float(share_a):.5f} (limit {2 / 3:.5f})")

# The balanced autocorrelation is exactly rational at every shift.
for shift in (0, 1, 2, 4, 6, 8):
    print(f"eta({shift}) = {pd.autocorr_balanced(shift)}")
