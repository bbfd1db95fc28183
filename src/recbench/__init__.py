"""Offline evaluation workbench for recommender systems.

Four evaluation functions (rating accuracy, pairwise ranking, top-N
discovery with impact, item-to-item exploration), a heavy/light user by
popular/unpopular item segmentation, and four reference models: item-item
KNN, SGD matrix factorization, a mean-based default predictor and a
uniform random predictor.
"""

from .baselines import DefaultPredictor, Predictor, RandomPredictor
from .dataset import (
    RatingLog,
    SegmentModel,
    SplitDataset,
    build_segment_model,
    load_dataset,
    split,
)
from .knn import KnnPredictor, SimilarityMatrix, build_similarity_matrix, weighted_pearson
from .mf import FactorModel, MFPredictor, mf_item_similarity, train_mf
from .metrics import comp_user
from .protocol import EvaluationReport, ProtocolConfig, evaluate, run_core, run_explore

__all__ = [
    "RatingLog",
    "SplitDataset",
    "SegmentModel",
    "load_dataset",
    "split",
    "build_segment_model",
    "Predictor",
    "DefaultPredictor",
    "RandomPredictor",
    "SimilarityMatrix",
    "weighted_pearson",
    "build_similarity_matrix",
    "KnnPredictor",
    "FactorModel",
    "train_mf",
    "mf_item_similarity",
    "MFPredictor",
    "comp_user",
    "ProtocolConfig",
    "EvaluationReport",
    "run_core",
    "run_explore",
    "evaluate",
]
