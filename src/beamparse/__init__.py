"""Transition-based neural dependency parsing with beam-search perceptron training."""

from .treebank import (
    AlignmentError,
    ConllError,
    DepTree,
    EvalReport,
    Token,
    evaluate,
    is_projective,
    read_conll,
    write_conll,
)
from .transitions import (
    Decision,
    DecisionSet,
    IllegalDecision,
    OracleError,
    apply,
    derive_oracle_sequence,
    initial_configuration,
    is_terminal,
    replay,
)
from .features import Vocabs, Vocabulary, build_vocabularies, extract_features
from .network import Dims, NetworkParams, Precomputation, forward, greedy_parse, init_params
from .training import TrainConfig, TrainingDiverged, sgd_step, train_greedy
from .decoder import (
    PerceptronConfig,
    PerceptronModel,
    beam_parse,
    compute_phi,
    train_perceptron,
)
from .tritrain import (
    agreement_filter,
    length_matched_sample,
    merge_training_sets,
    take_token_budget,
)
from .model_io import load_embeddings, load_model, save_model

__version__ = "0.1.0"
