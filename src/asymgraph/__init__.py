"""Dual-embedding GNN toolkit for related-product recommendation on
directed product graphs."""

__version__ = "0.1.0"

from .graph import (DirectedProductGraph, KeyMap, build_graph, graph_stats,
                    load_edge_file, load_feature_file)
from .loss import LossBatch, LossValue, asymmetric_loss, loss_grad
from .model import (DualEmbeddings, ModelParams, backward, embed_all, forward,
                    load_checkpoint, save_checkpoint)
from .retrieval import EmbeddingIndex, batch_recommend, recommend_related
from .sampler import ComputationBlocks, sample_blocks, sample_negatives
from .synth import SynthConfig, generate
from .trainer import TrainConfig, TrainResult, resume, train

__all__ = [
    "DirectedProductGraph", "KeyMap", "build_graph", "graph_stats",
    "load_edge_file", "load_feature_file", "LossBatch", "LossValue",
    "asymmetric_loss", "loss_grad", "DualEmbeddings", "ModelParams",
    "backward", "embed_all", "forward", "load_checkpoint", "save_checkpoint",
    "EmbeddingIndex", "batch_recommend", "recommend_related",
    "ComputationBlocks", "sample_blocks", "sample_negatives", "SynthConfig",
    "generate", "TrainConfig", "TrainResult", "resume", "train",
]
