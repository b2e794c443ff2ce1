"""
Bragg peaks of the doubling chain
=================================

Evaluate the closed-form peak amplitudes on the dyadic module, confirm them
against a plain windowed sum, and draw the classic stem figure.
"""

from pathlib import Path

from limitper import numerics, period_doubling as pd
from limitper.dyadic import module_points
from limitper.render import PeakTable, peaks_csv, stem_svg, weigh

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

# Peaks live on the dyadic rationals.  With balanced weights (+1 on a, -1 on
# b) the amplitude at k is A(k) - B(k); the deepest peaks fade like 4^-r.
# ``weigh`` applies the weights to the per-letter rows as ``limitper
# diffract`` does.
weights = pd.Weights(1, -1)
quarters = module_points(2, ((0, 1),), include_hi=False)
amplitude = weigh(pd.amplitude_arrays(quarters), (weights.alpha, weights.beta))
balanced = PeakTable.of(quarters, amplitude)
print("k, |amplitude|^2 for the balanced chain:")
for k, intensity in zip(quarters.points(), balanced.intensity.tolist()):
    print(f"  {k}: {intensity:.6f}")

# The same numbers fall out of a direct exponential sum over a finite patch;
# no Fourier analysis beyond the definition is involved.
comb = numerics.pd_comb(1 << 18, (1, -1))
windowed = numerics.empirical_amplitudes(comb, quarters)
print("closed form vs windowed sum (window 2^19):")
for k, closed, estimate in zip(quarters.points(), balanced.amplitude.tolist(), windowed.tolist()):
    print(f"  {k}: {closed:.6f} vs {estimate:.6f}")

# The total point mass recovers the autocorrelation at shift zero, which is
# exactly 1 for balanced weights; r <= 12 already leaves a 1e-4 deficit.
print(f"mass over [0,1), r <= 12: {pd.peak_mass(12, weights):.6f}")

# One period of |amplitude|^2 with the single-letter weights (1, 0) is the
# usual self-similar stem picture: row 0 of the amplitude arrays is letter a.
module = module_points(8, ((0, 1),))
rows = pd.amplitude_arrays(module)
table = PeakTable.of(module, rows[0])
(OUT / "chain_peaks.csv").write_text(peaks_csv(table))
(OUT / "chain_stem.svg").write_text(stem_svg(table, 0, 1))
print(f"wrote {OUT / 'chain_peaks.csv'} and {OUT / 'chain_stem.svg'}")
