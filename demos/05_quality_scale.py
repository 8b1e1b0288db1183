"""
The writing quality scale: presets and reconstruction
=====================================================
"""

from lexigauge import (
    GroupKey,
    Language,
    StylePoint,
    class_center,
    load_bundled_tables,
    load_wqs_presets,
    reconstruct,
    select_group,
    wqs,
)
from lexigauge.targets import RECORDED_SCALE_FACTORS

# The scale is a linear functional on (d_rel, h_rel, j): weights dotted with
# the offset from an origin point. The published presets ship with the package.
presets = load_wqs_presets()
for label, coeffs in sorted(presets.items()):
    w = coeffs.weights
    print(f"{label:17s} weights=({w.d_rel:+.4f}, {w.h_rel:+.4f}, {w.j:+.4f})")

# Score one point on the verbatim english preset. Positive d_rel (richer
# vocabulary than the growth model expects) pulls the score up; positive
# h_rel and j pull it down.
point = StylePoint(-0.1684, 0.0049, -0.1156)
print(f"\nexample row scores {wqs(presets['verbatim-en'], point):+.4f} on verbatim-en")
print(f"and {wqs(presets['verbatim-es'], point):+.4f} on verbatim-es")

# The preset geometry can be rebuilt from the bundled tables: the origin is
# the non-laureate class center and the weights point toward the laureate
# center, stretched by the recorded scale factor. reconstruct() is that
# construction; analyze scores its wqs_reconstructed column with it.
rows = load_bundled_tables()
print()
for nobel, name in ((False, "non-laureate center:"), (True, "laureate center:")):
    group = select_group(rows, GroupKey(Language.ENGLISH, nobel))
    c = class_center([StylePoint(r.d_rel, r.h_rel, r.j) for r in group])
    print(f"{name:21s}({c.d_rel:+.5f}, {c.h_rel:+.5f}, {c.j:+.5f})")

rebuilt = reconstruct(rows, Language.ENGLISH, RECORDED_SCALE_FACTORS["en"])
w = rebuilt.weights
print(f"unit direction:      ({w.d_rel / w.norm():+.5f}, {w.h_rel / w.norm():+.5f}, "
      f"{w.j / w.norm():+.5f})")
print(f"rebuilt weights:     ({w.d_rel:+.4f}, {w.h_rel:+.4f}, {w.j:+.4f})")
print(f"the reconstruction scores the example row {wqs(rebuilt, point):+.4f}")
