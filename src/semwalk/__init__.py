"""Semantic-visual graph embedding and Markov-walk label inference.

Training videos with free-form verb annotations become nodes of a
graph whose edges capture semantic label relations and visual
confusability; an unlabelled query is embedded by visual distance and
a short Markov walk over the graph yields a probability distribution
over semantic classes.
"""
from .dataset import (
    Dataset,
    DescriptorSet,
    VideoSegment,
    parse_manifest,
    read_descriptor_file,
    split_lopo,
    write_descriptor_file,
)
from .encoding import (
    BOW,
    FV,
    Codebook,
    EncodedVector,
    GmmModel,
    distance,
    encode,
    encode_bow,
    encode_fisher,
    encode_many,
    load_model,
    save_model,
    subsample,
    train_gmm,
    train_kmeans,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    SyntheticSpec,
    gen_synthetic,
    run_lopo,
    sweep,
)
from .graph import SvgGraph, SvgNode, build_svg, distance_matrix, normalize_transitions
from .inference import WalkConfig, classify, classify_batch, embed_query, markov_walk
from .semantics import (
    AH,
    AM,
    AS,
    MODES,
    VERB,
    Taxonomy,
    parse_taxonomy,
    related,
    semantic_classes,
)

__version__ = "0.1.0"
