"""lexigauge: corpus stylometry toolkit.

Measures texts by symbolic diversity, entropy, ranked-frequency deviation,
and readability, and combines the deviations from per-language corpus models
into a writing quality scale. Ships reference tables with recorded
verification targets and a command-line interface over the whole pipeline.
"""

import types as _types

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
from .pipeline import AnalysisError, TextMetrics, analyze_text, load_report
from .profile import (
    RankedProfile,
    build_profile,
    entropy,
    specific_diversity,
)
from .readability import (
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
    reconstruct,
    wqs,
)
from .zipf import fit_zipf_exponent, zipf_deviation, zipf_reference

__version__ = "0.1.0"

# every public name imported above; the submodules are attributes too, so
# modules are left out (hence the private alias of `types`)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
