"""restory: generate agile user stories from source code with LLMs and
evaluate them against reference stories."""

from .corpus import (
    CodeSnippet,
    DatasetRecord,
    Stratum,
    count_nloc,
    load_dataset,
    sample_stratified,
    save_dataset,
    stratum_for_nloc,
)
from .gateway import (
    CompletionResult,
    Gateway,
    GenerationConfig,
    ModelSpec,
    estimate_cost,
    model_spec,
)
from .metrics import (
    EmbeddedText,
    FidelityBand,
    HashEmbedder,
    OneHotEmbedder,
    ScoreTriple,
    bleu,
    classify_fidelity,
    greedy_embedding_score,
    rouge_l,
    tokenize,
)
from .prompts import (
    Exemplar,
    PromptConfig,
    RenderedPrompt,
    default_prompt_config,
    estimate_tokens,
    load_exemplars,
    render_prompt,
)
from .runner import (
    AnnotationSet,
    BandAggregate,
    CalibrationPair,
    GenerationRecord,
    aggregate_by_band,
    calibration_experiment,
    cohen_kappa,
    load_calibration_pairs,
    run_experiment,
)
from .story import UserStory, canonical_text, parse_stories, parse_story

__version__ = "0.1.0"
