"""Dual-embedding GNN toolkit for related-product recommendation on
directed product graphs."""

import importlib

__version__ = "0.1.0"

# `python -m asymgraph` sets the unset ones to 1 before numpy loads (this
# root loads its modules on first use only); manifests record them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

_EXPORTS = {
    "graph": ["DirectedProductGraph", "KeyMap", "build_graph", "graph_stats",
              "load_edge_file", "load_feature_file"],
    "loss": ["LossBatch", "LossValue", "asymmetric_loss", "loss_grad"],
    "model": ["DualEmbeddings", "ModelParams", "backward", "embed_all",
              "forward", "load_checkpoint", "save_checkpoint"],
    "retrieval": ["EmbeddingIndex", "batch_recommend", "recommend_related"],
    "sampler": ["ComputationBlocks", "sample_blocks", "sample_negatives"],
    "synth": ["SynthConfig", "generate"],
    "trainer": ["TrainConfig", "TrainResult", "resume", "train"],
}
__all__ = sum(_EXPORTS.values(), [])


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
