"""restory: generate agile user stories from source code with LLMs and
evaluate them against reference stories. Each name below loads its
submodule on first access (PEP 562), so a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": "CodeSnippet DatasetRecord Stratum count_nloc load_dataset sample_stratified"
              " save_dataset stratum_for_nloc",
    "gateway": "CompletionResult Gateway GenerationConfig ModelSpec estimate_cost model_spec",
    "metrics": "EmbeddedText FidelityBand HashEmbedder ScoreTriple bleu"
               " classify_fidelity greedy_embedding_score rouge_l tokenize",
    "prompts": "Exemplar PromptConfig RenderedPrompt default_prompt_config estimate_tokens"
               " load_exemplars render_prompt",
    "runner": "AnnotationSet BandAggregate CalibrationPair GenerationRecord aggregate_by_band"
              " calibration_experiment cohen_kappa load_calibration_pairs run_experiment",
    "story": "UserStory canonical_text parse_stories parse_story",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
