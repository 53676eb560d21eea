"""Vapor-pressure prediction from molecular structure.

A self-contained pipeline: SMILES parsing and graph featurization, an
attention-based graph network with a self-attention readout, and a bounded
prediction head that emits Antoine parameters, plus the data curation,
training, and evaluation machinery around it.
"""

from .antoine import (
    PARAM_RANGES,
    AntoineDomainError,
    AntoineParams,
    boiling_temperature,
    ln_vapor_pressure,
    vapor_pressure,
)
from .dataio import (
    VpDataset,
    VpPoint,
    carbon_count,
    curate,
    load,
    robust_antoine_fit,
    robust_antoine_fits,
    split,
)
from .featurize import (
    MolGraph,
    ScopeError,
    ScopeResult,
    featurize,
    ring_membership,
    validate_scope,
)
from .gnn import GatLayer, attention_scores, encode, gat_forward
from .metrics import (
    EvalReport,
    PredictedPoints,
    ape_c,
    ape_i,
    binned_reports,
    boiling_point_eval,
    hexbin_grid,
    summarize,
)
from .model import (
    Architecture,
    GrappaModel,
    Prediction,
    init_model,
    load_checkpoint,
    parameter_accounting_markdown,
    predict,
    predict_dataset,
    save_checkpoint,
)
from .molecule import Atom, Bond, Molecule, permute_molecule
from .pooling import InteractionPoolParams, interaction_pool, sum_pool
from .smiles import (
    CountTooLongError,
    DanglingBondError,
    SmilesError,
    UnbalancedSmilesError,
    UnknownAtomError,
    ValenceError,
    implicit_hydrogens,
    parse_smiles,
)
from .tensor import NonFiniteError, Tensor
from .train import (
    FitResult,
    TrainConfig,
    adamw_step,
    fit,
    grid_search,
    loss_huber,
    loss_mse,
    one_cycle_lr,
    plateau_lr,
)

__version__ = "0.1.0"
