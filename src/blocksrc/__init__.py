"""Block-based ensembles of sparse classifiers with dictionary learning."""

from .blocks import RoiSample, block_vectors
from .config import ExperimentConfig, load_config, parse_config_text
from .dictlearn import (
    DiscriminativeDictionary,
    LabelMatrices,
    TrainParams,
    build_label_matrices,
    lcksvd_train_stack,
)
from .ensemble import BlockResults, bbll, bbmap, block_decisions, roc_auc
from .harness import (
    EvalReport,
    compute_metrics,
    export_dictionary_mosaic,
    run_experiment,
    run_grid,
    stratified_folds,
)
from .labels import BENIGN, CLASS_IDS, CLASS_NAMES, MALIGNANT
from .mias import MiasRecord, build_roi_cache, extract_roi, filter_lesions, load_roi_cache, parse_metadata
from .model_io import load_model, save_model
from .pgm import GrayImage, encode_pgm, parse_pgm, read_pgm, write_pgm
from .solvers import Dictionary, batch_omp, bpdn_batch, class_residuals, normalize_columns
from .synth import SynthSpec, synth_dataset, write_synth_cache

__version__ = "0.1.0"
