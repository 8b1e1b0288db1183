"""
Readability scoring for English and Spanish
===========================================
"""

from lexigauge import (
    Language,
    ReadabilityInputs,
    ipsz,
    load_language_params,
    readability_inputs,
    res,
    score,
    tokenize,
)

# Both formulas take W (syllables per word) and S (words per phrase).
# Syllables are estimated from character counts: L_CH / c_sy characters per
# syllable, with a per-language constant.
params = load_language_params()
en = params[Language.ENGLISH]

text = ("Government of the people, by the people, for the people, "
        "shall not perish from the earth. It is for us, the living, rather "
        "to be dedicated here to the unfinished work.")
t = tokenize(text)
inputs = readability_inputs(t, en)
print(f"W={inputs.W:.4f} syllables/word, S={inputs.S:.4f} words/phrase")
print(f"english reading ease: {res(inputs):.2f}")
print(f"spanish perspicuity:  {ipsz(inputs):.2f}")

# score() dispatches on the params' language; to cross-apply a formula,
# call it directly.
print(f"score() picks: {score(inputs, en):.2f}")
print(f"forced ipsz:   {ipsz(inputs):.2f}")

# The two formulas differ only in how hard long phrases are penalized:
# ipsz - res = 0.015 * S, always.
print(f"\nidentity check: {ipsz(inputs) - res(inputs):.6f} == {0.015 * inputs.S:.6f}")

# Score sensitivity: longer phrases push both scores down.
for s_val in (5.0, 15.0, 30.0):
    print(f"  W=1.5, S={s_val:>4}: res={res(ReadabilityInputs(1.5, s_val)):7.2f}")
