from __future__ import annotations

import copy
import csv
import hashlib
import inspect
import io
import random
import sys
from itertools import compress

import numpy as np
import pytest
from conftest import make_forest, node, random_forest
from oracles import (
    bfs_arrays,
    brute_force_common_subtree,
    common_subtree_size,
    lifted_postorder,
    mapping_violations,
    reference_from_csv,
    serialize_xtm,
)

from tmclust.errors import ValidationError
from tmclust.matrix import csv_fields
from tmclust.synth import make_planted_corpus
from tmclust.textpipe import build_fallback_forest
from tmclust.treesim import (
    SimilarityMatrix,
    _Form,
    _postorder,
    build_matrix,
    max_common_subtree,
    tm_similarity,
)
from tmclust.xtm import (
    DOC_ROOT_LABEL,
    Association,
    Topic,
    TopicForest,
    TopicMapDoc,
    TopicNode,
    derive_forest,
    iter_bfs,
    number_nodes,
    parse_xtm,
    sort_forest,
)


def test_identical_trees_map_completely():
    forest = make_forest("d", node("a", node("b"), node("c")), node("d"))
    twin = make_forest("e", node("a", node("b"), node("c")), node("d"))
    assert len(max_common_subtree(forest, twin)) == len(number_nodes(forest))


def test_conflicting_ancestry_limits_mapping():
    # T1 = root->[a->[b], c]; T2 = root->[a, c->[b]]: b cannot map both ways.
    t1 = make_forest("d1", node("a", node("b")), node("c"))
    t2 = make_forest("d2", node("a"), node("c", node("b")))
    mapping = max_common_subtree(t1, t2)
    assert len(mapping) == 3
    assert len(brute_force_common_subtree(t1, t2)) == 3
    assert tm_similarity(t1, t2) == pytest.approx(2 / 3)


def test_disjoint_trees_share_only_root():
    t1 = make_forest("d1", node("a"), node("b"))
    t2 = make_forest("d2", node("x"), node("y"))
    mapping = max_common_subtree(t1, t2)
    assert mapping.pairs == frozenset({(1, 1)})
    assert tm_similarity(t1, t2) == 0.0


def test_level_skip_is_allowed():
    # A node may go unmatched and its children map deeper on the other side.
    t1 = make_forest("d1", node("a"))
    t2 = make_forest("d2", node("x", node("a")))
    assert len(max_common_subtree(t1, t2)) == 2


def test_root_only_forests_are_identical():
    assert tm_similarity(make_forest("a"), make_forest("b")) == 1.0


@pytest.mark.parametrize(
    "a, b",
    [
        (node("x", node("p")), node("y", node("p"))),
        (node("x"), node("y")),
        (node("x", node("p")), node("y")),
    ],
    ids=["shared-child", "root-only", "one-root-only"],
)
def test_forests_with_different_roots_score_zero(a, b):
    t1, t2 = TopicForest("d1", a), TopicForest("d2", b)
    assert len(brute_force_common_subtree(t1, t2)) == 0
    assert tm_similarity(t1, t2) == 0.0
    assert tm_similarity(t2, t1) == 0.0


def test_identity_similarity_is_one():
    rng = random.Random(2)
    for _ in range(20):
        forest = random_forest(rng)
        assert tm_similarity(forest, forest) == 1.0


def test_similarity_symmetric_and_in_range():
    rng = random.Random(3)
    for _ in range(200):
        a = random_forest(rng)
        b = random_forest(rng)
        sim = tm_similarity(a, b)
        assert sim == tm_similarity(b, a)
        assert 0.0 <= sim <= 1.0


def test_dp_matches_brute_force_on_random_pairs():
    rng = random.Random(4)
    for _ in range(200):
        a = random_forest(rng)
        b = random_forest(rng)
        assert common_subtree_size(a, b) == len(brute_force_common_subtree(a, b))


def test_dp_mappings_are_valid():
    rng = random.Random(5)
    for _ in range(200):
        a = random_forest(rng)
        b = random_forest(rng)
        mapping = max_common_subtree(a, b)
        assert mapping_violations(a, b, mapping) == []
        assert len(mapping) == common_subtree_size(a, b)


def test_grafting_same_subtree_never_decreases_mapping():
    rng = random.Random(6)
    for _ in range(100):
        a = random_forest(rng, max_nodes=8)
        b = random_forest(rng, max_nodes=8)
        before = common_subtree_size(a, b)
        graft = random_forest(rng, max_nodes=4).root.children
        extra = [copy.deepcopy(child) for child in graft]
        a2 = sort_forest(
            TopicForest("a2", copy.deepcopy(a.root))
        )
        b2 = sort_forest(TopicForest("b2", copy.deepcopy(b.root)))
        a2.root.children.extend(copy.deepcopy(extra))
        b2.root.children.extend(copy.deepcopy(extra))
        sort_forest(a2)
        sort_forest(b2)
        assert common_subtree_size(a2, b2) >= before


def test_brute_force_single_nodes():
    same_a = TopicForest("x", TopicNode(label="a"))
    same_b = TopicForest("y", TopicNode(label="a"))
    other = TopicForest("z", TopicNode(label="b"))
    assert len(brute_force_common_subtree(same_a, same_b)) == 1
    assert len(brute_force_common_subtree(same_a, other)) == 0


def test_brute_force_refuses_large_trees():
    big = make_forest("big", *[node(f"t{i}") for i in range(12)])
    small = make_forest("small", node("a"))
    with pytest.raises(ValueError, match="10 nodes"):
        brute_force_common_subtree(big, small)


def test_mapping_violations_detects_breakage():
    t1 = make_forest("d1", node("a", node("b")))
    t2 = make_forest("d2", node("a", node("b")))
    from tmclust.treesim import Mapping

    # Missing root pair.
    assert mapping_violations(t1, t2, Mapping(frozenset({(2, 2)})))
    # Label mismatch: map a (2) to b (3).
    assert mapping_violations(t1, t2, Mapping(frozenset({(1, 1), (2, 3)})))
    # One-to-one breakage needs two pairs sharing a side.
    broken = Mapping(frozenset({(1, 1), (2, 2), (2, 3)}))
    assert mapping_violations(t1, t2, broken)


def test_build_matrix_identical_docs_all_ones():
    forests = [make_forest(f"d{i}", node("a", node("b"))) for i in range(3)]
    matrix = build_matrix(forests)
    assert np.array_equal(matrix.values, np.ones((3, 3)))


def test_build_matrix_disjoint_docs_identity():
    forests = [
        make_forest("d0", node("a")),
        make_forest("d1", node("b")),
        make_forest("d2", node("c")),
    ]
    matrix = build_matrix(forests)
    assert np.array_equal(matrix.values, np.eye(3))


def test_build_matrix_matches_oracle_recomputation():
    forests = [
        make_forest("d0", node("a", node("b")), node("c")),
        make_forest("d1", node("a"), node("c", node("b"))),
        make_forest("d2", node("a", node("b"), node("c"))),
        make_forest("d3", node("x")),
    ]
    matrix = build_matrix(forests)
    for i, a in enumerate(forests):
        for j, b in enumerate(forests):
            size = len(brute_force_common_subtree(a, b))
            n1, n2 = len(number_nodes(a)), len(number_nodes(b))
            if n1 == 1 and n2 == 1:
                expected = 1.0
            else:
                expected = (2.0 * size - 2.0) / (n1 + n2 - 2.0)
            assert matrix.values[i, j] == pytest.approx(expected)


def test_build_matrix_requires_two_forests():
    with pytest.raises(ValidationError):
        build_matrix([make_forest("only", node("a"))])


def test_matrix_csv_roundtrip():
    forests = [
        make_forest("d0", node("a", node("b"))),
        make_forest("d1", node("a")),
    ]
    matrix = build_matrix(forests)
    again = SimilarityMatrix.from_csv(matrix.to_csv(), matrix.measure)
    assert again.doc_ids == matrix.doc_ids
    assert np.array_equal(again.values, matrix.values)


def _per_cell_csv(matrix: SimilarityMatrix) -> str:
    # With "\r\n" as the terminator, csv.writer quotes a field that holds a
    # CR or an LF on every Python version; each row then ends in "\n".
    rows = [["doc_id"] + matrix.doc_ids]
    rows += [[doc_id] + [repr(float(v)) for v in row] for doc_id, row in zip(matrix.doc_ids, matrix.values)]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def test_to_csv_matches_the_per_cell_repr_csv():
    matrices = [SimilarityMatrix("m", ["a", "b"], np.array([[1.0, 5e-324], [5e-324, 1.0]]))]
    odd = [5e-324, 1e-05, 0.1 + 0.2, 1.0, 0.0, 1 / 3, 2.5e-300, 0.9999999999999999]
    values = np.eye(len(odd) + 1)
    for k, v in enumerate(odd):
        values[0, k + 1] = values[k + 1, 0] = v
        values[k + 1, (k + 2) % len(odd) + 1] = values[(k + 2) % len(odd) + 1, k + 1] = v
    # Doc ids that CSV must quote, among ones it need not.
    ids = ["", "a,b", 'q"t', "new\nline", "cr\rid", " pad", "é"] + [f"d{k}" for k in range(2)]
    matrices.append(SimilarityMatrix("m", ids, values))
    rng = np.random.default_rng(3)
    for n in (3, 17, 60):
        upper = np.triu(rng.random((n, n)), 1)
        matrices.append(SimilarityMatrix("m", [f"d{k}" for k in range(n)], upper + upper.T + np.eye(n)))
    for matrix in matrices:
        assert matrix.to_csv() == _per_cell_csv(matrix)


ODD_IDS = ["", "a,b", 'q"t', "new\nline", "cr\rid", "crlf\r\nid", '"', " pad", "é"]


def test_from_csv_reads_back_what_to_csv_writes():
    rng = np.random.default_rng(11)
    n = len(ODD_IDS)
    # Uniform draws scaled down into the subnormals, and the odd values.
    upper = rng.random((n, n)) * 2.0 ** rng.integers(-1074, 1, (n, n)).astype(float)
    upper[0, 1:6] = [5e-324, 1e-05, 0.1 + 0.2, 2.5e-300, 0.9999999999999999]
    upper = np.triu(upper, 1)
    matrix = SimilarityMatrix("m", ODD_IDS, upper + upper.T + np.eye(n))
    again = SimilarityMatrix.from_csv(matrix.to_csv(), "m")
    assert again.doc_ids == ODD_IDS
    assert np.array_equal(again.values.view(np.int64), matrix.values.view(np.int64))


def _random_matrix(rng: np.random.Generator, n: int) -> SimilarityMatrix:
    """A symmetric matrix over ODD_IDS and plain ids, with subnormals and the
    odd values of the test above."""
    ids = [str(rng.choice(ODD_IDS)) if rng.random() < 0.5 else f"d{k}" for k in range(n)]
    upper = rng.random((n, n))
    tiny = rng.random((n, n)) < 0.3
    upper[tiny] *= 2.0 ** rng.integers(-1074, 1, tiny.sum()).astype(float)
    odd = rng.random((n, n)) < 0.2
    upper[odd] = rng.choice([5e-324, 1e-05, 0.1 + 0.2, 2.5e-300, 0.9999999999999999, 0.0, 1.0], odd.sum())
    upper = np.triu(upper, 1)
    return SimilarityMatrix("m", ids, upper + upper.T + np.eye(n))


def _same_value_numerals(cell: str) -> list[str]:
    """Other numerals of `cell`'s value, as a hand-edited file might hold."""
    numerals = [format(float(cell), ".17e"), "+" + cell]
    if "e" not in cell:
        numerals.append(cell + "0")
    if float(cell) == 0.0:
        numerals.append("-" + cell)  # -0.0 == 0.0, so it is still symmetric
    return numerals


def _mutants(rng: np.random.Generator, matrix: SimilarityMatrix):
    """(kind, text, accepted): `to_csv`'s text rewritten in each way the
    readers are compared on, and whether a reader must accept the result."""
    n, fields = len(matrix.doc_ids), csv_fields(matrix.doc_ids)
    grid = [[repr(v) for v in row] for row in matrix.values.tolist()]
    header = ",".join(["doc_id", *fields])

    def text(rows: list[str]) -> str:
        return "\n".join([header, *rows]) + "\n"

    def lines(cells: list[list[str]]) -> list[str]:
        return [field + "," + ",".join(row) for field, row in zip(fields, cells)]

    def edit(i: int, j: int, cell: str) -> str:
        cells = [list(row) for row in grid]
        cells[i][j] = cell
        return text(lines(cells))

    original = text(lines(grid))
    assert original == matrix.to_csv()
    yield "original", original, True
    if n > 1:
        j, i = sorted(rng.choice(n, 2, replace=False))  # (i, j) lies below the diagonal
        yield "same-value", edit(i, j, str(rng.choice(_same_value_numerals(grid[i][j])))), True
        yield "other-value", edit(i, j, repr((float(grid[i][j]) + 0.5) % 1.0)), False
    a, b = rng.integers(n, size=2)
    yield "not-a-number", edit(a, b, str(rng.choice(["x", "", "0..5", "0x1p-1", "1 0"]))), False
    longer, shorter = [list(row) for row in grid], [list(row) for row in grid]
    longer[a].append("0.5")
    shorter[a].pop()
    yield "cell-too-many", text(lines(longer)), False
    yield "cell-too-few", text(lines(shorter)), False
    rows = lines(grid)
    yield "row-missing", text(rows[:a] + rows[a + 1:]), False
    yield "row-extra", text(rows[: a + 1] + rows[a:]), False
    yield "trailing-blank-line", original + "\n", False
    yield "crlf", original.replace("\n", "\r\n"), True


def _outcome(read, text: str):
    try:
        matrix = read(text, "m")
    except ValidationError:
        return None
    return matrix.doc_ids, matrix.values.view(np.int64).tolist()


def test_from_csv_matches_the_reference_reader_on_random_and_mutated_matrices():
    rng = np.random.default_rng(18)
    seen = set()
    for _ in range(200):
        matrix = _random_matrix(rng, int(rng.integers(1, 61)))
        for kind, text, accepted in _mutants(rng, matrix):
            got = _outcome(SimilarityMatrix.from_csv, text)
            assert got == _outcome(reference_from_csv, text), (kind, text)
            assert (got is not None) == accepted, (kind, text)
            if kind == "original":
                assert got == (matrix.doc_ids, matrix.values.view(np.int64).tolist())
            seen.add(kind)
    assert len(seen) == 10


@pytest.mark.parametrize(
    "text",
    ['doc_id,a,b\n"a",1.0,0.5\nb,0.5,1.0\n', 'doc_id, pad,b\n" pad",1.0,0.5\nb,0.5,1.0\n'],
    ids=["plain-id-quoted", "padded-id-quoted"],
)
def test_from_csv_refuses_a_row_id_quoted_otherwise_than_to_csv_writes_it(text):
    # The reference reader accepts it; to_csv never writes it.
    assert reference_from_csv(text, "m").doc_ids[0] in ("a", " pad")
    with pytest.raises(ValidationError, match="not in the form to_csv writes"):
        SimilarityMatrix.from_csv(text, "m")


def test_from_csv_refuses_a_quoted_cell():
    # Cells are split at commas and never unquoted: to_csv never quotes a number.
    text = 'doc_id,a,b\na,1.0,"0.5"\nb,0.5,1.0\n'
    assert reference_from_csv(text, "m").values[0, 1] == 0.5
    with pytest.raises(ValidationError, match="non-numeric"):
        SimilarityMatrix.from_csv(text, "m")


@pytest.mark.parametrize("text", ["", "\n", "doc_id\n", "doc_id", "doc_id\n\n"])
def test_from_csv_refuses_a_header_without_doc_ids(text):
    with pytest.raises(ValidationError):
        SimilarityMatrix.from_csv(text, "m")


@pytest.mark.parametrize(
    "text, row",
    [
        ("doc_id,a,b\nx,1.0,0.5\ny,0.5,1.0\n", "x"),
        ("doc_id,a,b,c\na,1.0,0.5,0.2\nc,0.2,0.3,1.0\nb,0.5,1.0,0.3\n", "c"),
    ],
    ids=["relabelled", "reordered"],
)
def test_from_csv_refuses_a_row_id_that_differs_from_the_header(text, row):
    with pytest.raises(ValidationError, match=f"row {row!r}"):
        SimilarityMatrix.from_csv(text, "m")


def test_from_csv_refuses_a_bare_cr_in_an_id():
    text = "doc_id,cr\rid,b\ncr\rid,1.0,0.5\nb,0.5,1.0\n"
    with pytest.raises(ValidationError, match="malformed"):
        SimilarityMatrix.from_csv(text, "m")


@pytest.mark.parametrize("cell", ["nan", "-nan", "inf"])
def test_from_csv_refuses_a_non_finite_cell_as_out_of_range(cell):
    # A symmetric pair of NaN cells is out of range, not asymmetric.
    text = f"doc_id,a,b\na,1.0,{cell}\nb,{cell},1.0\n"
    with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
        SimilarityMatrix.from_csv(text, "m")


@pytest.mark.parametrize("low, high", [(0.4, 0.5), (0.0, -0.0)])
def test_to_csv_refuses_an_asymmetric_matrix(low, high):
    # 0.0 and -0.0 compare equal but print differently: mirroring would hide it.
    bad = SimilarityMatrix("m", ["a", "b"], np.array([[1.0, low], [high, 1.0]]))
    with pytest.raises(ValidationError, match="symmetric"):
        bad.to_csv()


def test_matrix_validate_rejects_asymmetry_and_range():
    bad = SimilarityMatrix(
        measure="m", doc_ids=["a", "b"], values=np.array([[1.0, 0.5], [0.4, 1.0]])
    )
    with pytest.raises(ValidationError, match="symmetric"):
        bad.validate()
    out_of_range = SimilarityMatrix(
        measure="m", doc_ids=["a", "b"], values=np.array([[1.0, 1.5], [1.5, 1.0]])
    )
    with pytest.raises(ValidationError, match="outside"):
        out_of_range.validate()


# Matrix CSV digests for make_planted_corpus(4, 10, seed=0).  The pinned one
# was recorded with the DP on uncontracted forests; the fallback one (forests
# of 40-51 nodes) with the keyroot table, and `_reference_pair` below gives it
# too.  The zero shortcut and contraction must not move a byte of either.
GOLDEN_PINNED_SHA256 = "1612083753ae6adceebc35fccc39a0fb2d215e9f52545e52d6970f6b2c946d72"
GOLDEN_FALLBACK_SHA256 = "b637ca61c36b487772253bdfd3f926e9edf97b7c8b695893ef396efa378d44c0"


def test_golden_planted_matrices():
    docs = make_planted_corpus(4, 10, seed=0)
    pinned = build_matrix([d.forest for d in docs]).to_csv()
    fallback = build_matrix(
        [build_fallback_forest(d.doc_id, d.text) for d in docs]
    ).to_csv()
    assert hashlib.sha256(pinned.encode("utf-8")).hexdigest() == GOLDEN_PINNED_SHA256
    assert hashlib.sha256(fallback.encode("utf-8")).hexdigest() == GOLDEN_FALLBACK_SHA256


def _relabel_one(rng: random.Random, forest: TopicForest, label: str, depth: int) -> None:
    """Give `label` to a node as close to `depth` (1 = root's child) as exists."""
    level = forest.root.children
    target = None
    for _ in range(depth):
        if not level:
            break
        target = rng.choice(level)
        level = target.children
    if target is not None:
        target.label = label


def _overlap_pairs(seed: int):
    """Random pairs of at most 10 nodes, by kind of label overlap."""
    rng = random.Random(seed)
    for _ in range(60):
        yield "disjoint", random_forest(rng, alphabet="abc"), random_forest(rng, alphabet="xyz")
    for _ in range(60):
        a = random_forest(rng, alphabet="abc")
        b = random_forest(rng, alphabet="xyz")
        _relabel_one(rng, a, "s", rng.randint(1, 4))
        _relabel_one(rng, b, "s", rng.randint(1, 4))
        yield "one-shared", sort_forest(a), sort_forest(b)
    for _ in range(60):
        yield "repeated", random_forest(rng, alphabet="aab"), random_forest(rng, alphabet="abb")
    for _ in range(60):
        # Shared a/b with private labels that sit between them on each side.
        yield (
            "interleaved",
            random_forest(rng, alphabet="abpq"),
            random_forest(rng, alphabet="abuv"),
        )


def _nonroot_labels(forest: TopicForest) -> set[str]:
    return {n.label for n in iter_bfs(forest.root)} - {forest.root.label}


def test_pair_routine_matches_oracle_by_label_overlap():
    kinds = set()
    for kind, a, b in _overlap_pairs(11):
        kinds.add(kind)
        expected = len(brute_force_common_subtree(a, b))
        assert common_subtree_size(a, b) == expected, kind
        mapping = max_common_subtree(a, b)
        assert len(mapping) == expected, kind
        assert mapping_violations(a, b, mapping) == [], kind
        if not _nonroot_labels(a) & _nonroot_labels(b):
            assert mapping.pairs == frozenset({(1, 1)})
            if len(number_nodes(a)) + len(number_nodes(b)) > 2:
                sim = tm_similarity(a, b)
                assert sim == 0.0 and str(sim) == "0.0"
    assert kinds == {"disjoint", "one-shared", "repeated", "interleaved"}


def test_unshared_nodes_between_shared_ones_are_skipped():
    # x and y are private to T1; a and b still map through them.
    t1 = make_forest("d1", node("x", node("a", node("y", node("b")))), node("c"))
    t2 = make_forest("d2", node("a", node("b")), node("z"))
    mapping = max_common_subtree(t1, t2)
    assert mapping.pairs == frozenset({(1, 1), (4, 2), (6, 4)})
    assert mapping_violations(t1, t2, mapping) == []
    assert len(brute_force_common_subtree(t1, t2)) == 3


def test_build_matrix_equals_pairwise_similarity_bitwise():
    forests = [f for _, a, b in _overlap_pairs(12) for f in (a, b)][::7]
    matrix = build_matrix(forests)
    for i, a in enumerate(forests):
        for j, b in enumerate(forests):
            if i != j:
                assert matrix.values[i, j] == tm_similarity(a, b)
    off_diagonal = matrix.values[~np.eye(len(forests), dtype=bool)]
    assert (off_diagonal == 0.0).any() and (off_diagonal > 0.0).any()


class _Tree:
    """BFS arrays (`oracles.bfs_arrays`) contracted to the non-root labels in
    `keep`, with shape ids from `shapes`, shared by both trees of a pair."""

    def __init__(self, arrays, keep: frozenset[int], shapes: dict[tuple, int]) -> None:
        labels, children = arrays
        self.labels = labels
        n = len(labels)
        self.children: list[tuple[int, ...]] = [()] * n
        self.sizes = [0] * n
        self.shapes = [0] * n
        lifted: list[tuple[int, ...]] = [()] * n
        for k in range(n - 1, -1, -1):
            kids = tuple(x for c in children[k] for x in lifted[c])
            if k and labels[k] not in keep:
                lifted[k] = kids
                continue
            lifted[k] = (k,)
            self.children[k] = kids
            self.sizes[k] = 1 + sum(self.sizes[c] for c in kids)
            key = (labels[k], tuple(self.shapes[c] for c in kids))
            self.shapes[k] = shapes.setdefault(key, len(shapes))


def _forest_lcs(f1: tuple[int, ...], f2: tuple[int, ...], t1: _Tree, t2: _Tree, memo: dict) -> int:
    """Largest mapping between two forests, by their leftmost roots."""
    if not f1 or not f2:
        return 0
    key = (f1, f2)
    if key in memo:
        return memo[key]
    if tuple(t1.shapes[i] for i in f1) == tuple(t2.shapes[j] for j in f2):
        value = sum(t1.sizes[i] for i in f1)
    else:
        v, rest1 = f1[0], f1[1:]
        w, rest2 = f2[0], f2[1:]
        value = max(
            _forest_lcs(t1.children[v] + rest1, f2, t1, t2, memo),
            _forest_lcs(f1, t2.children[w] + rest2, t1, t2, memo),
        )
        if t1.labels[v] == t2.labels[w]:
            matched = 1 + _forest_lcs(t1.children[v], t2.children[w], t1, t2, memo)
            value = max(value, matched + _forest_lcs(rest1, rest2, t1, t2, memo))
    memo[key] = value
    return value


def _reference_pair(a: TopicForest, b: TopicForest) -> int:
    """The recursive memo DP that the keyroot table replaced."""
    codec: dict[str, int] = {}
    arrays1, arrays2 = bfs_arrays(a, codec), bfs_arrays(b, codec)
    if arrays1[0][0] != arrays2[0][0]:
        return 0
    shapes: dict[tuple, int] = {}
    keep = frozenset(arrays1[0][1:]) & frozenset(arrays2[0][1:])
    t1, t2 = _Tree(arrays1, keep, shapes), _Tree(arrays2, keep, shapes)
    return 1 + _forest_lcs(t1.children[0], t2.children[0], t1, t2, {})


def _chain(doc_id: str, labels: list[str]) -> TopicForest:
    """A forest whose nodes form one parent-child chain, root first."""
    root = TopicNode(label=DOC_ROOT_LABEL)
    tip = root
    for label in labels:
        tip.children.append(TopicNode(label=label))
        tip = tip.children[0]
    return TopicForest(doc_id=doc_id, root=root)


def test_differently_ordered_600_label_chains_compare_without_recursion():
    labels = [f"t{k}" for k in range(600)]
    a = _chain("a", labels)
    b = _chain("b", labels[::2] + labels[1::2])
    # The longest common subsequence is the evens up to t2k, then the odds.
    assert tm_similarity(a, b) == 602 / 1200
    assert len(max_common_subtree(a, b)) == 302


WORDS = "amber cedar comet harbor lantern maple orbit river stone violet".split()


def _fallback_forests(seed: int, count: int) -> list[TopicForest]:
    rng = random.Random(seed)
    forests = []
    for k in range(count):
        sentences = [
            " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 7)))
            for _ in range(rng.randint(3, 6))
        ]
        forests.append(build_fallback_forest(f"t{k}", ". ".join(sentences) + "."))
    return forests


def _larger_pairs(seed: int):
    """Random pairs of 20-80 nodes over small alphabets, then every pair of
    a few fallback forests."""
    rng = random.Random(seed)
    for alphabet in ("abc", "aabbc", "abcdefgh"):
        for _ in range(12):
            yield tuple(
                random_forest(rng, min_nodes=20, max_nodes=80, alphabet=alphabet)
                for _ in range(2)
            )
    forests = _fallback_forests(seed, 8)
    for i, a in enumerate(forests):
        for b in forests[i + 1 :]:
            yield a, b


def test_table_matches_the_memo_reference_on_larger_forests():
    sizes = set()
    for a, b in _larger_pairs(21):
        expected = _reference_pair(a, b)
        assert common_subtree_size(a, b) == expected
        mapping = max_common_subtree(a, b)
        assert len(mapping) == expected
        assert mapping_violations(a, b, mapping) == []
        sizes.add(expected)
    assert len(sizes) > 20


def test_contraction_filters_the_postorder_as_the_lifted_oracle_contracts():
    rng = random.Random(31)
    alphabets = ["aab", "aabbcd", ["a", "a", "b", DOC_ROOT_LABEL], "abcdefgh"]
    for trial in range(400):
        codec: dict[str, int] = {}
        forest = random_forest(rng, max_nodes=40, alphabet=alphabets[trial % len(alphabets)])
        form = _Form(forest, codec)
        labels, children = bfs_arrays(forest, codec)
        ids = sorted(codec.values())
        for keep in (frozenset(), frozenset(ids), frozenset(i for i in ids if rng.random() < 0.5)):
            kept, contracted, leftmost = _postorder(form, keep)
            order, expected, expected_leftmost = lifted_postorder(labels, children, keep)
            assert list(compress(form.bfs, kept)) == list(order)
            assert contracted == expected
            assert leftmost == expected_leftmost


def _xtm_forests(seed: int, count: int) -> list[TopicForest]:
    """Forests derived from XTM documents that each keep a random part of one
    taxonomy of depth 3 and branching 3; a few topics take a shared name."""
    rng = random.Random(seed)
    parent: dict[str, str] = {}
    level = [""]
    for _ in range(3):
        level = [p + str(c) for p in level for c in range(3)]
        parent.update((child, child[:-1]) for child in level)
    forests = []
    for k in range(count):
        chosen = [t for t in sorted(parent) if rng.random() < 0.6]
        topics = [Topic(f"t{t}", rng.choice(WORDS) if rng.random() < 0.15 else f"n{t}") for t in chosen]
        associations = [
            Association("superclass-subclass", f"t{parent[t]}", f"t{t}")
            for t in chosen
            if parent[t] in chosen
        ]
        doc = TopicMapDoc(f"x{k}", topics, associations)
        forests.append(derive_forest(parse_xtm(serialize_xtm(doc), doc_id=doc.doc_id)))
    return forests


def _oracle_matrix(forests: list[TopicForest]) -> SimilarityMatrix:
    """The tm-sim matrix from the memo DP over the lifted contraction."""
    n = len(forests)
    values = np.eye(n)
    for i, a in enumerate(forests):
        for j in range(i + 1, n):
            b = forests[j]
            n1, n2 = len(number_nodes(a)), len(number_nodes(b))
            if a.root.label != b.root.label:
                sim = 0.0
            elif n1 == 1 and n2 == 1:
                sim = 1.0
            else:
                sim = (2.0 * _reference_pair(a, b) - 2.0) / (n1 + n2 - 2.0)
            values[i, j] = values[j, i] = sim
    return SimilarityMatrix("tm-sim", [f.doc_id for f in forests], values)


@pytest.mark.parametrize("kind", ["planted", "xtm"])
def test_build_matrix_csv_is_the_oracle_csv(kind):
    if kind == "planted":
        forests = [d.forest for d in make_planted_corpus(4, 10, seed=5)]
    else:
        forests = _xtm_forests(7, 24)
    assert build_matrix(forests).to_csv() == _oracle_matrix(forests).to_csv()
    # Both outcomes of the equal-tree test occur, so the table runs too.
    codec: dict[str, int] = {}
    forms = [_Form(f, codec) for f in forests]
    equal = set()
    for i, a in enumerate(forms):
        for b in forms[i + 1 :]:
            keep = a.nonroot & b.nonroot
            if keep:
                equal.add(_postorder(a, keep)[1:] == _postorder(b, keep)[1:])
    assert equal == {True, False}


def test_600_label_chain_contracts_without_recursion():
    labels = [f"t{k}" for k in range(600)]
    chain = _chain("a", labels)
    codec: dict[str, int] = {}
    keep = frozenset(codec.setdefault(label, len(codec)) for label in labels[::3])
    limit = sys.getrecursionlimit()
    # A walk that recursed once per level would need some 600 frames more.
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        form = _Form(chain, codec)
        kept, contracted, leftmost = _postorder(form, keep)
    finally:
        sys.setrecursionlimit(limit)
    order, expected, expected_leftmost = lifted_postorder(*bfs_arrays(chain, codec), keep)
    assert list(compress(form.bfs, kept)) == list(order)
    assert (contracted, leftmost) == (expected, expected_leftmost)
    assert leftmost == [0] * 201
