"""Topic-map document clustering toolkit.

Documents become ordered topic-label trees (parsed from XTM or built from
plain text); pairwise similarity comes from a root-preserving common
subtree measure plus four vector baselines; hierarchical agglomerative
clustering and purity/entropy scoring close the loop.
"""

from .cluster import Dendrogram, cut, hac
from .errors import TmclustError, ValidationError, XtmParseError
from .evalx import EvalReport, evaluate
from .matrix import SimilarityMatrix
from .simbase import build_matrices_base
from .textpipe import CorpusDoc, TermVector
from .treesim import build_matrix, max_common_subtree
from .xtm import (
    DOC_ROOT_LABEL,
    Association,
    Occurrence,
    Topic,
    TopicForest,
    TopicMapDoc,
    derive_forest,
    forest_from_json,
    parse_xtm,
)

__version__ = "0.1.0"
