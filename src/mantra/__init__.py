"""Desk-scale noisy-label training pipeline.

Injects controlled label noise into small supervised tasks, tracks
per-sample loss trajectories while training from-scratch learners, detects
the corrupted samples with BIC-selected Gaussian mixtures over the losses,
drops them adaptively mid-training, and quantifies the recovery against a
baseline twin that trains straight through the noise.
"""

from .data import (DatasetSplit, generate_classification_dataset,
                   generate_summarization_dataset, load_jsonl)
from .errors import (ConfigError, FitError, MantraError, ParseError,
                     SchemaError, SequencingError, UsageError)
from .gmm import GmmModel, bic_value, fit_em, posteriors, select_model
from .learner import (ClassifierModel, Seq2SeqModel, TrainConfig,
                      gradient_check, per_sample_losses, predict, train_epoch)
from .metrics import bleu4, detection_report, micro_f1, micro_f1_from_counts
from .noise import NoiseMask, inject_label_noise, inject_summary_noise
from .runner import (ExperimentConfig, RunReport, compare_runs, run_experiment,
                     run_grid)
from .scheduler import DropPolicy, DropState, active_samples, evaluate_epoch
from .trajectory import TrajectoryStore

__version__ = "0.1.0"

__all__ = [
    "DatasetSplit", "generate_classification_dataset",
    "generate_summarization_dataset", "load_jsonl",
    "MantraError", "ParseError", "SchemaError", "ConfigError", "FitError",
    "SequencingError", "UsageError",
    "GmmModel", "fit_em", "bic_value", "select_model", "posteriors",
    "ClassifierModel", "Seq2SeqModel", "TrainConfig", "per_sample_losses",
    "train_epoch", "gradient_check", "predict",
    "bleu4", "micro_f1", "micro_f1_from_counts", "detection_report",
    "NoiseMask", "inject_label_noise", "inject_summary_noise",
    "ExperimentConfig", "RunReport", "run_experiment", "run_grid",
    "compare_runs",
    "DropPolicy", "DropState", "evaluate_epoch", "active_samples",
    "TrajectoryStore",
]
