"""Topic-map document clustering toolkit.

Documents become ordered topic-label trees (parsed from XTM or built from
plain text); pairwise similarity comes from a root-preserving common
subtree measure plus four vector baselines; hierarchical agglomerative
clustering and purity/entropy scoring close the loop.
"""

from .cluster import ClusterAssignment, Dendrogram, cut, hac
from .errors import TmclustError, ValidationError, XtmParseError
from .evalx import ContingencyTable, EvalReport, contingency, entropy, evaluate, purity
from .matrix import SimilarityMatrix
from .simbase import (
    build_matrix_base,
    cosine_sim,
    euclidean_sim,
    jaccard_sim,
    kld_sim,
)
from .textpipe import (
    Corpus,
    CorpusDoc,
    TermVector,
    build_fallback_forest,
    tokenize,
    vectorize,
)
from .treesim import (
    Mapping,
    build_matrix,
    max_common_subtree,
    tm_similarity,
)
from .xtm import (
    DOC_ROOT_LABEL,
    Association,
    Occurrence,
    Topic,
    TopicForest,
    TopicMapDoc,
    TopicNode,
    derive_forest,
    forest_from_json,
    number_nodes,
    parse_xtm,
)

__version__ = "0.1.0"
