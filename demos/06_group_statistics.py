"""
Group statistics over the bundled reference tables
==================================================
"""

from lexigauge import load_bundled_tables, pearson, summarize, t_test
from lexigauge.targets import GROUPS, split_groups

rows = load_bundled_tables()
print(f"{len(rows)} rows across four tables")

# The four groups that `tables` and `verify` use (plus the en-all and es-all
# unions). Grouping keeps speeches only, and laureate groups drop translations.
groups = split_groups(rows)
for label in GROUPS:
    print(f"  {label}: n={len(groups[label])}")

# Per-group mean and sample standard deviation of each style coordinate.
print(f"\n{'':10s} {'d_rel':>18s} {'h_rel':>18s} {'j':>18s}")
for label in GROUPS:
    g = groups[label]
    cells = []
    for metric in ("d_rel", "h_rel", "j"):
        s = summarize([getattr(r, metric) for r in g])
        cells.append(f"{s.mean:+.4f} ({s.std:.4f})")
    print(f"{label:10s} {cells[0]:>18s} {cells[1]:>18s} {cells[2]:>18s}")

# Two-tailed pooled t-tests on the laureate split. The profile-deviation
# coordinate separates the groups most sharply in both languages.
print()
for metric in ("d_rel", "h_rel", "j"):
    for lang in ("en", "es"):
        a = [getattr(r, metric) for r in groups[f"{lang}-nobel"]]
        b = [getattr(r, metric) for r in groups[f"{lang}-non"]]
        print(f"  {metric:5s} {lang} laureate split: p={t_test(a, b):.3g}")

# Quality correlates negatively with readability: the scale rewards exactly
# the density that makes prose harder to read.
en_all = groups["en-all"]
corr = pearson([r.wqs for r in en_all], [r.readability for r in en_all])
print(f"\nwqs vs readability over {len(en_all)} english speeches: r={corr:+.3f}")
