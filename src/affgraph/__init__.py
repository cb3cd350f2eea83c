"""Depth-informed interaction graphs: qualitative spatio-temporal relation
extraction, graph embedding, and unsupervised affordance clustering."""

from .scene import (
    BoundingBox,
    DepthSample,
    Entity,
    EntityKind,
    EntityObservation,
    MaskRLE,
    SceneError,
    SceneSequence,
    load_scene,
    save_scene,
)
from .convexity import ConcavityBounds, ConvexityType
from .qsr import DisrRelation, Rcc2Relation, Rcc5OnRelation
from .temporal import AllenRelation, Calculus, Episode, Interval
from .graphlet import AGraphlet, build_agraphlets, canonical_form, parse_canonical
from .embedding import TrainConfig, Vocabulary, train, wl_tokens
from .clustering import Dendrogram, cut
from .evaluation import v_measure
from .pipeline import PipelineConfig, PROFILES, run_pipeline
from .synth import SyntheticScript, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AGraphlet",
    "AllenRelation",
    "BoundingBox",
    "Calculus",
    "ConcavityBounds",
    "ConvexityType",
    "Dendrogram",
    "DepthSample",
    "DisrRelation",
    "Entity",
    "EntityKind",
    "EntityObservation",
    "Episode",
    "Interval",
    "MaskRLE",
    "PROFILES",
    "PipelineConfig",
    "Rcc2Relation",
    "Rcc5OnRelation",
    "SceneError",
    "SceneSequence",
    "SyntheticScript",
    "TrainConfig",
    "Vocabulary",
    "build_agraphlets",
    "canonical_form",
    "cut",
    "generate_synthetic",
    "load_scene",
    "parse_canonical",
    "run_pipeline",
    "save_scene",
    "train",
    "v_measure",
    "wl_tokens",
]
