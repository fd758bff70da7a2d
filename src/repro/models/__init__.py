"""The 43-model ionic suite and its registry."""

from .registry import (ALL_MODELS, HAND_WRITTEN, LARGE_MODELS, MEDIUM_MODELS,
                       MODEL_DIR, SIZE_CLASS, SMALL_MODELS,
                       UNSUPPORTED_MODELS, ModelEntry, all_model_files,
                       list_models, load_model, model_entry,
                       model_source_hash, verify_registry)

__all__ = ["ALL_MODELS", "HAND_WRITTEN", "LARGE_MODELS", "MEDIUM_MODELS",
           "MODEL_DIR", "SIZE_CLASS", "SMALL_MODELS", "UNSUPPORTED_MODELS",
           "ModelEntry", "all_model_files", "list_models", "load_model",
           "model_entry", "model_source_hash", "verify_registry"]
