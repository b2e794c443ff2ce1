"""
Bring your own substitution
===========================

Describe a new constant-length substitution in the small rule format, grow
its fixed point, and probe its spectrum with windowed sums.  Thue-Morse makes
a good guest: unlike the doubling chain its balanced weighting has no Bragg
peaks away from the integers, and the windowed sums show that directly.
"""

from pathlib import Path

from limitper import numerics, subst
from limitper.dyadic import Dyadic, Module
from limitper.render import weigh, window_text

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

RULES = """\
kind = word
factor = 2
alphabet = a b

a -> a b
b -> b a
"""

# Parse the rule text and sanity-check the system.
rules_path = OUT / "thue_morse.sub"
rules_path.write_text(RULES)
system = subst.load_rules(rules_path)
print("alphabet:", system.alphabet, "primitive:", system.is_primitive())
print("letter frequencies:", {l: str(f) for l, f in subst.natural_frequencies(system).items()})

# a|b is not a legal bi-infinite seed for this rule (the image of a does not
# end in a), but the squared substitution a -> abba, b -> baab fixes a|a.
squared = system.power(2)
print("a|a legal for the square:", subst.check_seed_legal(squared, subst.word_seed(squared, "a", "a")))

seed = subst.word_seed(squared, "a", "a")
print("small patch:", window_text(subst.fixed_point_window(squared, seed, 2), system.alphabet), end="")

# Windowed amplitude at k = 1/2, doubling the window three times.  For the
# doubling chain this estimate settles near 2/3; here it keeps shrinking,
# the signature of a spectrum with no point mass at 1/2.
half_k = Module.of([Dyadic.of(1, 1)], 1)
for exponent in (12, 14, 16):
    half = 1 << exponent
    comb = numerics.WeightedComb(subst.centred_window(squared, seed, half), 2)
    estimate = weigh(numerics.empirical_amplitudes(comb, half_k), (1, -1))[0]
    print(f"window 2^{exponent + 1}: |amplitude at 1/2| = {abs(estimate):.5f}")
print("compare the doubling chain, where the same probe returns ~0.667:")
pd_comb = numerics.pd_comb(1 << 16)
estimate = weigh(numerics.empirical_amplitudes(pd_comb, half_k), (1, -1))[0]
print(f"window 2^17: |amplitude at 1/2| = {abs(estimate):.5f}")
