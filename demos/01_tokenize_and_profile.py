"""
Tokenizing a text and ranking its symbol frequencies
====================================================
"""

from lexigauge import build_profile, entropy, specific_diversity, tokenize
from lexigauge._data import data_path

# Words and punctuation marks both count as symbols. Case is folded, curly
# quotes are straightened, and "..." collapses to a single ellipsis mark.
sample = 'Fourscore and seven years ago... "A date," he said, for the record!'
t = tokenize(sample)
print("symbols:", [s.text for s in t.symbols])
print(f"L={t.L} symbols, of which L_w={t.L_w} words; L_ph={t.L_ph} phrases; "
      f"L_CH={t.L_CH} word characters")

# A ranked profile sorts distinct symbols by descending frequency. Ties break
# alphabetically so the ranking is reproducible.
p = build_profile(t)
print("\ntop of the profile:")
for rank, (sym, f) in enumerate(p.entries[:6], start=1):
    print(f"  rank {rank}: {sym!r} x{f}")

# d = D/L measures vocabulary richness per symbol; h is Shannon entropy with
# logarithm base D so it lands in [0, 1] regardless of vocabulary size.
print(f"\nD={p.D} distinct symbols, d={specific_diversity(p):.4f}, h={entropy(p):.4f}")

# The same measures on a real speech, bundled with the package.
text = data_path("texts/gettysburg_address.txt").read_text(encoding="utf-8")
t = tokenize(text)
p = build_profile(t)
print(f"\ngettysburg address: L={t.L}, D={p.D}, d={specific_diversity(p):.4f}, "
      f"h={entropy(p):.4f}")
for rank in (1, 2, 3):
    sym, f = p.entries[rank - 1]
    print(f"  rank {rank}: {sym!r} x{int(f)}")
