"""
How far a frequency profile strays from a pure power law
========================================================
"""

from lexigauge import (
    RankedProfile,
    build_profile,
    fit_zipf_exponent,
    tokenize,
    zipf_deviation,
    zipf_reference,
)
from lexigauge._data import data_path

# A profile that follows f_r = f_1 / r^g exactly has deviation J = 0: the
# observed mass L equals the reference mass Z built from the top frequency.
exact = RankedProfile.from_frequencies([100.0 / r**1.2 for r in range(1, 31)])
print(f"exact power profile: L={exact.L:.3f} Z={zipf_reference(exact, 1.2):.3f} "
      f"J={zipf_deviation(exact, 1.2):+.2e}")

# Hand-checkable case: frequencies (8,4,2,1) against g=1. The reference is
# 8*(1 + 1/2 + 1/3 + 1/4) = 16.667, more mass than the 15 observed, so J < 0.
p = RankedProfile.from_frequencies([8, 4, 2, 1])
print(f"(8,4,2,1) vs g=1: Z={zipf_reference(p, 1.0):.4f} J={zipf_deviation(p, 1.0):+.4f}")

# For real text the exponent is fitted first. The fit anchors the curve at the
# observed top frequency and least-squares the log-log profile against it.
text = data_path("texts/gettysburg_address.txt").read_text(encoding="utf-8")
profile = build_profile(tokenize(text))
g = fit_zipf_exponent(profile)
print(f"\ngettysburg address: fitted g={g:.4f}")
print(f"observed mass L={profile.L:.0f}, reference mass Z={zipf_reference(profile, g):.1f}")
print(f"deviation J={zipf_deviation(profile, g):+.4f}")
# negative J: the real profile holds less total mass than its power-law
# reference, i.e. the tail thins out faster than the fitted curve
