"""Federated knowledge-graph recommendation simulator."""

from .client import ClientState, build_request, local_train, merge_graphs
from .config import ExperimentConfig
from .data import Dataset, generate_synthetic, load_dataset
from .kg import KnowledgeGraph, Layer, Subgraph, build_kg, sample_subgraph
from .messages import GradientUpload, RequestMessage
from .metrics import MetricReport, auc, evaluate_ctr, evaluate_report, f1
from .model import (Field, GradientPacket, LocalGraph, ModelParams, SparseGrad,
                    attention_weights, backward, bce_loss, propagate)
from .params import (ParameterState, apply_global_update, gather, init_params,
                     load_checkpoint, save_checkpoint)
from .privacy import (DpConfig, RequestPlan, generate_request_items,
                      interaction_budget, ldp_encrypt, privacy_budget)
from .server import (AggregatedGradient, RoundConfig, RoundReport, aggregate,
                     run_round, select_clients, serve_request, train)

__version__ = "0.1.0"
