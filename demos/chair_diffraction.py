"""
Bragg peaks of the chair coloring
=================================

Cross-check the four closed-form amplitudes three ways (case formulas, layer
sums, windowed sums), then draw the peak disc for the extinction-rich
fourth-root weighting.
"""

from pathlib import Path

from limitper import chair, numerics
from limitper.dyadic import DyadicPoint2, Module, module_points
from limitper.render import PeakTable, disc_svg, peaks_csv, weigh

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

# The four per-color amplitudes at a few wave vectors.  On integers they are
# all 1/4; deeper points pick up eighth-root phases.
for k in (DyadicPoint2(1, 1), DyadicPoint2(1, 0, 1), DyadicPoint2(1, 0, 2)):
    values = chair.amplitudes(k).values
    print(f"k = {k}: " + ", ".join(f"{v:.5f}" for v in values))

# Route two: truncated sums over the coset layers converge geometrically;
# every layer feeds an integer point, so the truncation error shows there.
# The array routes take a module; ``Module.of`` makes one of a single point.
k_int = DyadicPoint2(1, 1)
for levels in (4, 8, 16):
    approx = numerics.approximant_amplitudes_chair(levels, Module.of([k_int], 2))[0, 0]
    print(f"layer sum to depth {levels} at (1, 1): {approx:.10f}")
print(f"closed form:                     {chair.amplitudes(k_int).values[0]:.10f}")

# Route three: a windowed exponential sum over a 513^2 patch of one color.
k = DyadicPoint2(1, 0, 2)
comb = numerics.chair_comb(256, (1.0, 0.0, 0.0, 0.0))
windowed = numerics.empirical_amplitudes(comb, Module.of([k], 2))[0]
print(f"windowed sum (513^2) at (1/4, 0): {windowed:.10f}")
print(f"closed form:                      {chair.amplitudes(k).values[0]:.10f}")

# Weights i^j extinguish every peak on the half even sublattice, which
# carries all the heavy intensity, so only the finer structure survives.
# The four colour amplitudes come as rows over the whole module at once,
# and ``weigh`` applies the weights as ``limitper diffract`` does.
weights = (1, 1j, -1, -1j)
module = module_points(3, ((-1, 1), (-1, 1)))
table = PeakTable.of(module, weigh(chair.amplitude_arrays(module), weights))
kept = int((table.intensity > 1e-14).sum())
print(f"{kept} of {len(table)} module points survive the extinctions")
(OUT / "chair_peaks.csv").write_text(peaks_csv(table))
(OUT / "chair_disc.svg").write_text(disc_svg(table, (-1, 1)))
print(f"wrote {OUT / 'chair_peaks.csv'} and {OUT / 'chair_disc.svg'}")
