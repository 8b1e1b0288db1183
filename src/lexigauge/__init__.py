"""lexigauge: corpus stylometry toolkit.

Measures texts by symbolic diversity, entropy, ranked-frequency deviation,
and readability, and combines the deviations from per-language corpus models
into a writing quality scale. Ships reference tables with recorded
verification targets and a command-line interface over the whole pipeline.
"""

from .corpus import (
    CorpusEntry,
    Genre,
    GroupKey,
    Language,
    Origin,
    ReferenceRow,
    load_bundled_tables,
    load_manifest,
    load_reference_table,
    load_report,
    save_manifest,
    select_group,
)
from .models import (
    LanguageParams,
    entropy_model_predict,
    fit_entropy_model,
    fit_heaps,
    heaps_predict,
    load_language_params,
    relative_diversity,
    relative_entropy,
)
from .pipeline import AnalysisError, TextMetrics, analyze_corpus, analyze_text
from .profile import (
    RankedProfile,
    build_profile,
    dump_profile,
    entropy,
    specific_diversity,
)
from .readability import (
    C_SY_ALTERNATES,
    ReadabilityInputs,
    ipsz,
    readability_inputs,
    res,
    score,
)
from .stats import (
    GroupSummary,
    TrendFit,
    linear_regression,
    pearson,
    summarize,
    t_test,
)
from .tokenizer import TokenizedText, tokenize
from .wqs import (
    StylePoint,
    WqsCoefficients,
    build_scale,
    class_center,
    direction_vector,
    load_wqs_presets,
    wqs,
)
from .zipf import fit_zipf_exponent, zipf_deviation, zipf_reference

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "C_SY_ALTERNATES",
    "CorpusEntry",
    "Genre",
    "GroupKey",
    "GroupSummary",
    "Language",
    "LanguageParams",
    "Origin",
    "RankedProfile",
    "ReadabilityInputs",
    "ReferenceRow",
    "StylePoint",
    "TextMetrics",
    "TokenizedText",
    "TrendFit",
    "WqsCoefficients",
    "analyze_corpus",
    "analyze_text",
    "build_profile",
    "build_scale",
    "class_center",
    "direction_vector",
    "dump_profile",
    "entropy",
    "entropy_model_predict",
    "fit_entropy_model",
    "fit_heaps",
    "fit_zipf_exponent",
    "heaps_predict",
    "ipsz",
    "linear_regression",
    "load_bundled_tables",
    "load_language_params",
    "load_manifest",
    "load_reference_table",
    "load_report",
    "load_wqs_presets",
    "pearson",
    "readability_inputs",
    "relative_diversity",
    "relative_entropy",
    "res",
    "save_manifest",
    "score",
    "select_group",
    "specific_diversity",
    "summarize",
    "t_test",
    "tokenize",
    "wqs",
    "zipf_deviation",
    "zipf_reference",
]
