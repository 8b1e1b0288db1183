"""
End-to-end analysis: library pipeline and the command line
==========================================================
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from lexigauge import (
    CorpusEntry,
    Genre,
    Language,
    Origin,
    analyze_text,
    load_language_params,
)
from lexigauge._data import data_path

params = load_language_params()
sample = data_path("texts/gettysburg_address.txt")

# analyze_text runs the whole chain on one entry: tokenize, profile, entropy,
# frequency-profile fit, growth-model deviations, readability, quality scale.
entry = CorpusEntry(id="G1", name="gettysburg", genre=Genre.SPEECH,
                    language=Language.ENGLISH, origin=Origin.ORIGINAL,
                    nobel=False, source_path=str(sample))
m = analyze_text(entry, params[Language.ENGLISH])
print(f"L={m.L} D={m.D} d={m.d:.4f} h={m.h:.4f} g={m.g:.4f} j={m.j:+.4f}")
print(f"d_rel={m.d_rel:+.4f} h_rel={m.h_rel:+.4f} readability={m.readability:.2f}")
print(f"wqs: {m.wqs_verbatim:+.4f} (verbatim preset) {m.wqs_reconstructed:+.4f} (reconstructed)")

# The same pipeline drives the command line. A report is a csv (or jsonl)
# with one row per text and a schema comment up top.
with tempfile.TemporaryDirectory() as work:
    report = Path(work) / "report.csv"
    subprocess.run([sys.executable, "-m", "lexigauge.cli", "analyze", str(sample),
                    "--lang", "en", "--out", str(report)], check=True)
    with open(report, encoding="utf-8") as fh:
        for line in list(fh)[:3]:
            print(line.rstrip()[:100])

# plot-data emits figure-ready points; verify checks the bundled tables
# against their recorded statistics (exit 0 means everything reproduces).
out = subprocess.run([sys.executable, "-m", "lexigauge.cli", "verify"],
                     capture_output=True, text=True)
print(f"\nverify exit code: {out.returncode}")
print(out.stdout.strip().splitlines()[-1])
