from __future__ import annotations

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph.errors import DataError
from capgraph.graph import (
    Graph,
    Kind,
    NodeKind,
    ServiceCategory,
    Split,
    _edge_table,
    append_edges,
    build_from_corpus,
    compute_imbalance,
    init_type_codes,
    load_assignment,
    load_graph,
    load_saved_graph,
    manufacturer,
    mask_target,
    read_records,
    restore_target,
    save_graph,
    service,
    stratified_split,
    tokenize,
    write_assignment,
    write_graph_files,
)

from conftest import graph_layouts, random_bipartite_graph, small_mixed_graph, star_graph


# ---------------------------------------------------------------------------
# Graph construction and file loading.
# ---------------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_graph_three_nodes_two_edges(tmp_path):
    nodes = _write(tmp_path, "n.tsv", "0\tmanufacturer\t-\tacme\n1\tservice\tprocess\tmilling\n2\tservice\tmaterial\tsteel\n")
    edges = _write(tmp_path, "e.tsv", "0\t1\n0\t2\n")
    g = load_graph(nodes, edges)
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert g.neighbors[0] == (1, 2)


def test_load_graph_dangling_endpoint(tmp_path):
    nodes = _write(tmp_path, "n.tsv", "\n".join(
        f"{j}\tmanufacturer\t-\tm{j}" for j in range(5)) + "\n")
    edges = _write(tmp_path, "e.tsv", "5\t7\n")
    with pytest.raises(DataError, match="dangling"):
        load_graph(nodes, edges)


def test_load_graph_duplicate_edge_collapses(tmp_path):
    nodes = _write(tmp_path, "n.tsv", "0\tmanufacturer\t-\ta\n1\tservice\tprocess\tp\n")
    edges = _write(tmp_path, "e.tsv", "0\t1\n0\t1\n1\t0\n")
    g = load_graph(nodes, edges)
    assert g.num_edges == 1
    assert len(g.neighbor_ids(0)) == 1


def test_load_graph_rejects_self_loop_with_line(tmp_path):
    nodes = _write(tmp_path, "n.tsv", "0\tmanufacturer\t-\ta\n1\tservice\tprocess\tp\n")
    edges = _write(tmp_path, "e.tsv", "0\t1\n1\t1\n")
    with pytest.raises(DataError, match="line 2"):
        load_graph(nodes, edges)


def test_load_graph_rejects_unknown_tokens(tmp_path):
    edges = _write(tmp_path, "e.tsv", "")
    bad_kind = _write(tmp_path, "k.tsv", "0\twidget\t-\ta\n")
    with pytest.raises(DataError, match="unknown kind"):
        load_graph(bad_kind, edges)
    bad_cat = _write(tmp_path, "c.tsv", "0\tservice\tcolor\ta\n")
    with pytest.raises(DataError, match="unknown category"):
        load_graph(bad_cat, edges)


def test_load_graph_requires_contiguous_ids(tmp_path):
    nodes = _write(tmp_path, "n.tsv", "0\tmanufacturer\t-\ta\n2\tservice\tprocess\tp\n")
    edges = _write(tmp_path, "e.tsv", "")
    with pytest.raises(DataError, match="contiguous"):
        load_graph(nodes, edges)


def test_read_records_skips_blank_lines_and_keeps_the_rest_of_the_line(tmp_path):
    path = _write(tmp_path, "r.tsv", "a\tb\tc\n\n \t \nx\ty\nlonely\n")
    records = read_records(path, 2, "pair file")
    assert next(records) == (1, ["a", "b\tc"])
    assert next(records) == (4, ["x", "y"])
    with pytest.raises(DataError, match=r"pair file .*r\.tsv line 5: expected 2 tab-separated fields, got 1"):
        next(records)


def test_load_graph_reports_the_first_bad_node_line_before_a_later_decode_error(tmp_path):
    lines = "0\twidget\t-\ta\n" + "".join(f"{j}\tservice\tprocess\ts{j}\n" for j in range(1, 5000))
    nodes = tmp_path / "n.tsv"
    nodes.write_bytes(lines.encode() + b"\xff\n")
    with pytest.raises(DataError, match="node file line 1: unknown kind token 'widget'"):
        load_graph(nodes, _write(tmp_path, "e.tsv", ""))


def test_load_graph_extra_tab_lands_in_the_name(tmp_path):
    nodes = _write(tmp_path, "n.tsv", "0\tmanufacturer\t-\ta\tb\n")
    with pytest.raises(DataError, match="contains tab"):
        load_graph(nodes, _write(tmp_path, "e.tsv", ""))


# Edge files for a graph of 11 nodes and the edges each holds. An endpoint
# is 1-8 ASCII digits, so the forms that only int() reads are rejected.
_EDGE_FILES = {
    b"0\t1\r\n1\t0\r\n": [[0, 1]],  # CRLF, a duplicate in reverse
    b"0\t1\r2\t3\r": [[0, 1], [2, 3]],  # lone CR
    b"\n  0 1  \n\n": [[0, 1]],  # blank lines, spaces
    b"\n  0 1  \n\n \t \n2\t\t3\n": [[0, 1], [2, 3]],  # whitespace-only lines, runs of blanks
    b"0\t1\n2\t3": [[0, 1], [2, 3]],  # no final newline
    b"00000007\t10\n": [[7, 10]],  # leading zeros
    b"": [],
    b"\n \n": [],
    b"+1\t2\n": "edge file line 1: bad endpoint",
    b"0\t1_0\n": "edge file line 1: bad endpoint",
    "\uff10\t1\n".encode(): "edge file line 1: bad endpoint",  # a full-width digit
}

# Edge files that are rejected, and the message, which names the first faulty line.
_BAD_EDGE_FILES = {
    b"0\t1\t2\n": "edge file line 1: expected 'src<TAB>dst'",  # three fields
    b"0\t1\n5\n": "edge file line 2: expected 'src<TAB>dst'",  # one field
    b"0 1 2\n3\n": "edge file line 1: expected 'src<TAB>dst'",  # four fields on two lines
    b"0\t1\n0\t11\n": "edge file line 2: dangling endpoint (0, 11)",
    b"0\t1\n123456789\t1\n": "edge file line 2: bad endpoint",  # more than 8 digits
    b"-1\t2\n": "edge file line 1: bad endpoint",
    b"0\t1\r\n\r\n3\t3\r\n": "edge file line 3: self-loop on node 3",  # CRLF ends one line
    b"0\tx\n": "edge file line 1: bad endpoint",
    b"0\t1\r\n2\t3\r\n4\t5 6\r\n": "edge file line 3: expected 'src<TAB>dst'",
    "0\t1\r\n2\t3\r\n4\t\u00e9\r\n".encode(): "edge file line 3: bad endpoint",
    # every line parses: the first edge that the graph rejects, whatever its fault
    b"8\t2\n8\t9\n9\t11\n": "edge file line 2: manufacturer-manufacturer edge (8, 9) is not allowed",
    b"8\t2\n\n8\t9\n": "edge file line 3: manufacturer-manufacturer edge (8, 9) is not allowed",
}


def _load_edges(tmp_path, raw: bytes) -> list[list[int]] | str:
    """The edges `load_graph` reads from an edge file for 11 nodes, 8 and 9
    manufacturers and the others services, or its message."""
    kinds = ["manufacturer\t-" if j in (8, 9) else "service\tprocess" for j in range(11)]
    nodes = _write(tmp_path, "n.tsv", "".join(f"{j}\t{kind}\tn{j}\n" for j, kind in enumerate(kinds)))
    edges = tmp_path / "e.tsv"
    edges.write_bytes(raw)
    try:
        return load_graph(nodes, edges).edge_array().tolist()
    except DataError as err:
        return str(err)


@pytest.mark.parametrize("text", [
    "0\t1\r\n1\t0\r\n",
    "\n  0 1  \n\n",
    "0\t1_0\n",  # int() accepts it, the edge file grammar does not
    "\uff10\t1\n",
])
def test_load_graph_reads_what_int_reads(tmp_path, text):
    assert _load_edges(tmp_path, text.encode()) == _EDGE_FILES[text.encode()]


def _loop_graph(nodes, edges):
    """The per-edge loop Graph construction replaced: (neighbors, edge count)
    or the first offending edge's message."""
    p = len(nodes)
    edge_set = set()
    for src, dst in edges:
        if not (0 <= src < p and 0 <= dst < p):
            return f"dangling endpoint in edge ({src}, {dst}); node count is {p}"
        if src == dst:
            return f"self-loop on node {src}"
        if nodes[src].is_manufacturer and nodes[dst].is_manufacturer:
            return f"manufacturer-manufacturer edge ({src}, {dst}) is not allowed"
        edge_set.add((min(src, dst), max(src, dst)))
    adj = [[] for _ in range(p)]
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in adj), len(edge_set)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graph_construction_matches_loop_oracle(data):
    kinds = data.draw(st.lists(st.booleans(), max_size=9))
    nodes = [manufacturer(f"m{j}") if k else service(f"s{j}", ServiceCategory.PROCESS)
             for j, k in enumerate(kinds)]
    endpoint = st.integers(-1, len(nodes))
    edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=20))
    want = _loop_graph(nodes, edges)
    if isinstance(want, str):
        with pytest.raises(DataError) as err:
            Graph(nodes, edges)
        assert str(err.value) == want
    else:
        g = Graph(nodes, edges)
        assert (g.neighbors, g.num_edges) == want
        assert g.edge_array().tolist() == [[u, v] for u, ns in enumerate(g.neighbors) for v in ns if u < v]


def test_graph_rejects_manufacturer_manufacturer_edge():
    nodes = [manufacturer("a"), manufacturer("b")]
    with pytest.raises(DataError, match="manufacturer-manufacturer"):
        Graph(nodes, [(0, 1)])


def test_write_then_load_round_trip(tmp_path):
    g = small_mixed_graph()
    write_graph_files(g, tmp_path / "n.tsv", tmp_path / "e.tsv")
    g2 = load_graph(tmp_path / "n.tsv", tmp_path / "e.tsv")
    assert g2 == g


# ---------------------------------------------------------------------------
# The stored form: sorted edge keys, and what is derived from them.
# ---------------------------------------------------------------------------


@st.composite
def _keyed_graphs(draw):
    """Nodes of interleaved kinds and a set of valid edges (u, v), u < v, ascending."""
    p = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.booleans(), min_size=p, max_size=p))
    nodes = [manufacturer(f"m{j}") if k else service(f"s{j}", ServiceCategory.PROCESS)
             for j, k in enumerate(kinds)]
    candidates = [(u, v) for u in range(p) for v in range(u + 1, p) if not (kinds[u] and kinds[v])]
    edges = sorted(draw(st.sets(st.sampled_from(candidates)))) if candidates else []
    return nodes, edges


@settings(max_examples=200, deadline=None)
@given(_keyed_graphs(), st.data())
def test_graph_from_any_edge_order_is_its_sorted_keys(graph, data):
    nodes, edges = graph
    p = len(nodes)
    # shuffled, some edges repeated, some written (v, u)
    messy = data.draw(st.permutations(edges + data.draw(st.lists(st.sampled_from(edges), max_size=8))
                                      if edges else []))
    flips = data.draw(st.lists(st.booleans(), min_size=len(messy), max_size=len(messy)))
    messy = [(v, u) if flip else (u, v) for (u, v), flip in zip(messy, flips)]
    g, canon = Graph(nodes, messy), Graph(nodes, edges)
    assert g == canon and hash(g) == hash(canon)
    assert g.keys.tolist() == [u * p + v for u, v in edges]

    a = np.zeros((p, p))  # the oracle
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    assert g.num_edges == len(edges)
    assert g.edge_array().tolist() == [list(e) for e in edges]
    assert np.array_equal(g.dense_adjacency(), a)
    assert g.indptr.tolist() == [0, *np.cumsum(a.sum(axis=1)).astype(int).tolist()]
    assert g.indices.tolist() == [v for u in range(p) for v in np.flatnonzero(a[u]).tolist()]
    assert g.neighbors == tuple(tuple(np.flatnonzero(a[u]).tolist()) for u in range(p))
    man = np.array([node.is_manufacturer for node in nodes])
    ids_i, ids_v, b, b_vi, c = g.adjacency_blocks()
    rows_i, rows_v = np.arange(p)[ids_i], np.arange(p)[ids_v]
    assert rows_i.tolist() == np.flatnonzero(man).tolist() and rows_v.tolist() == np.flatnonzero(~man).tolist()
    assert np.array_equal(b, a[np.ix_(rows_i, rows_v)])
    assert np.array_equal(b_vi, a[np.ix_(rows_v, rows_i)])
    assert np.array_equal(c, a[np.ix_(rows_v, rows_v)])


@settings(max_examples=60, deadline=None)
@given(_keyed_graphs())
def test_load_graph_reads_back_what_write_graph_files_wrote(tmp_path_factory, graph):
    g = Graph(*graph)
    out = tmp_path_factory.mktemp("graph")
    write_graph_files(g, out / "n.tsv", out / "e.tsv")
    assert load_graph(out / "n.tsv", out / "e.tsv") == g


def test_a_saved_graph_loads_equal_on_every_layout(tmp_path):
    for layout, graph in graph_layouts(tmp_path).items():
        save_graph(graph, tmp_path / f"{layout}.bin")
        assert load_saved_graph(tmp_path / f"{layout}.bin") == graph, layout


def _graph_bin(codes: list[int], keys: list[int], names: bytes) -> bytes:
    """A graph file's bytes, laid out as the format says."""
    return b"CGGR" + struct.pack("<QQ", len(codes), len(keys)) + bytes(codes) + np.array(keys, "<i8").tobytes() + names


# small_mixed_graph's columns and edge keys
_CODES, _KEYS = [0, 0, 0, 0, 1, 2, 3, 4], [4, 5, 13, 14, 22, 23, 31, 37]
_NAMES = b"alpha\nbeta\ngamma\ndelta\nautomotive\nmachining\ncopper\niso 9001"


def test_save_graph_writes_the_documented_layout(tmp_path):
    save_graph(small_mixed_graph(), tmp_path / "graph.bin")
    assert (tmp_path / "graph.bin").read_bytes() == _graph_bin(_CODES, _KEYS, _NAMES)


@pytest.mark.parametrize("content, message", [
    (b"CGMX" + _graph_bin(_CODES, _KEYS, _NAMES)[4:], "not a capgraph graph file"),
    (_graph_bin(_CODES, _KEYS, _NAMES)[:30], "truncated edge keys"),
    (_graph_bin(_CODES[:7] + [5], _KEYS, _NAMES), "unknown type code 5"),
    (_graph_bin(_CODES, _KEYS, _NAMES.rsplit(b"\n", 1)[0]), "7 node names for 8 nodes"),
    (_graph_bin(_CODES, _KEYS, _NAMES.replace(b"beta", b"be\tta")), "a node name contains a tab"),
    (_graph_bin(_CODES, _KEYS, _NAMES.replace(b"beta", b"be\xffta")), "node names are not UTF-8"),
    (_graph_bin(_CODES, _KEYS[:-1] + [64], _NAMES), r"edge key 64: dangling endpoint \(8, 0\)"),
    (_graph_bin(_CODES, [1, *_KEYS], _NAMES), r"edge key 1: manufacturer-manufacturer edge \(0, 1\) is not allowed"),
], ids=["bad-magic", "truncated", "unknown-code", "name-count", "tab-in-name", "not-utf8", "dangling-key",
        "manufacturer-manufacturer-key"])
def test_load_saved_graph_rejects_a_malformed_file_naming_it(tmp_path, content, message):
    path = tmp_path / "graph.bin"
    path.write_bytes(content)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
        load_saved_graph(path)


def test_the_stored_keys_and_the_edge_array_are_read_only(mixed_graph):
    for array in (mixed_graph.keys, mixed_graph.edge_array(), mixed_graph.indices, mixed_graph.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@settings(max_examples=100, deadline=None)
@given(_keyed_graphs(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3)), max_size=12))
def test_append_edges_equals_sorting_the_union(graph, added):
    nodes, edges = graph
    p = len(nodes)
    # edges (u, p + k) to new nodes above every id, ascending
    added = sorted({(u % p, p + k) for u, k in added})
    want = sorted(set(edges) | set(added))
    got = append_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), np.array(added, dtype=np.int64).reshape(-1, 2))
    assert got.tolist() == [list(e) for e in want]


# ---------------------------------------------------------------------------
# The whole-file readers and writers against per-line code.
# ---------------------------------------------------------------------------


def _random_graph(p: int, m: int) -> Graph:
    """p nodes of mixed kinds and up to m random edges among them."""
    rng = np.random.default_rng(p + m)
    is_man = rng.random(p) < 0.5
    categories = list(ServiceCategory)
    nodes = [manufacturer(f"m{j}") if is_man[j] else service(f"s\u00fc {j}", categories[j % 4])
             for j in range(p)]
    pairs = rng.integers(0, p, size=(m, 2))
    allowed = (pairs[:, 0] != pairs[:, 1]) & ~(is_man[pairs[:, 0]] & is_man[pairs[:, 1]])
    return Graph(nodes, pairs[allowed])


# ids cross 9/10, 99/100, 999/1000 and reach 4119; no edges; a single node
@pytest.mark.parametrize("p, m", [(12, 40), (101, 600), (1001, 5000), (4120, 30000), (12, 0), (1, 0)])
def test_write_graph_files_matches_per_line_formatting(tmp_path, p, m):
    g = _random_graph(p, m)
    nodes, edges = tmp_path / "n.tsv", tmp_path / "e.tsv"
    write_graph_files(g, nodes, edges)
    want_nodes = "".join(
        f"{j}\t{node.kind.value}\t{'-' if node.category is None else node.category.value}\t{node.name}\n"
        for j, node in enumerate(g.nodes))
    assert nodes.read_bytes() == want_nodes.encode("utf-8")
    assert edges.read_bytes() == "".join(f"{u}\t{v}\n" for u, v in g.edge_array().tolist()).encode()
    g2 = load_graph(nodes, edges)
    assert g2.nodes == g.nodes
    assert np.array_equal(g2.indptr, g.indptr) and np.array_equal(g2.indices, g.indices)


def test_write_assignment_matches_per_line_formatting(tmp_path):
    labels = (np.random.default_rng(5).random(1500) < 0.2).astype(np.int64)
    split = stratified_split(labels, seed=5)
    path = tmp_path / "assignment.tsv"
    write_assignment(path, split, labels)
    want = "".join(f"{j}\t{split.assignment[j].value}\t{int(label)}\n" for j, label in enumerate(labels))
    assert path.read_bytes() == want.encode()
    got_labels, got_split = load_assignment(path, labels.size, 5)
    assert np.array_equal(got_labels, labels)
    assert got_split.assignment == split.assignment


def _universal_newlines(raw: bytes) -> str:
    return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


# `read` marks the files that are read, the others are rejected with a message.
@pytest.mark.parametrize("raw, read", [
    (raw, isinstance(want, list)) for raw, want in _EDGE_FILES.items()
])
def test_edge_readers_accept_the_same_files(tmp_path, raw, read):
    got = _load_edges(tmp_path, raw)
    assert isinstance(got, list) == read
    assert got == _EDGE_FILES[raw]


@pytest.mark.parametrize("raw", list(_BAD_EDGE_FILES))
def test_edge_readers_reject_the_same_files_with_the_same_message(tmp_path, raw):
    assert _load_edges(tmp_path, raw) == _BAD_EDGE_FILES[raw]


def _split_lines(text: str) -> list[tuple[int, int]] | str:
    """Each non-blank line's two endpoints of 1-8 ASCII digits, between
    spaces and tabs; or the message for the first line that is not so."""
    edges = []
    for lineno, line in enumerate(_universal_newlines(text.encode()).split("\n"), start=1):
        parts = [part for part in re.split(r"[ \t]+", line) if part]
        if not parts:
            continue
        if len(parts) != 2:
            return f"edge file line {lineno}: expected 'src<TAB>dst'"
        if not all(re.fullmatch(r"[0-9]{1,8}", part) for part in parts):
            return f"edge file line {lineno}: bad endpoint"
        edges.append((int(parts[0]), int(parts[1])))
    return edges


_EDGE_TOKENS = st.sampled_from(["0", "7", "10", "0042", "99999999", "123456789", "+1", "-1", "x"])
_BLANKS = st.sampled_from(["", " ", "\t", "  ", " \t "])
_EDGE_LINES = st.builds(lambda tokens, gap, edge: edge + gap.join(tokens) + edge,
                        st.lists(_EDGE_TOKENS, max_size=4), _BLANKS.filter(bool), _BLANKS)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(alphabet="0123456789 \t\r\n+-x", max_size=80),
    st.builds("\n".join, st.lists(_EDGE_LINES, max_size=8)),
))
def test_edge_table_reads_the_plain_files_the_line_parser_reads(text):
    want = _split_lines(text)
    if isinstance(want, str):
        with pytest.raises(DataError) as err:
            _edge_table(text.encode())
        assert str(err.value) == want
    else:
        assert _edge_table(text.encode()).tolist() == [list(e) for e in want]


@pytest.mark.parametrize("text", [
    "1\tservice\tprocess\tb\n0\tmanufacturer\t-\ta\n",  # ids out of order
    "0\tmanufacturer\t-\ta\r\n\r\n1\tservice\tprocess\tb\r\n",  # CRLF, a blank line
    "0\tmanufacturer\t-\ta\n+1\tservice\tprocess\tb",  # '+', no final newline
])
def test_node_readers_accept_the_same_files(tmp_path, text):
    nodes = tmp_path / "n.tsv"
    nodes.write_bytes(text.encode())
    g = load_graph(nodes, _write(tmp_path, "e.tsv", "0\t1\n"))
    assert g.nodes == (manufacturer("a"), service("b", ServiceCategory.PROCESS))


def test_node_file_reports_the_earliest_faulty_line(tmp_path):
    lines = ["0\tmanufacturer\t-\ta\n", "x\tservice\tprocess\tb\n", "2\twidget\t-\tc\n"]  # bad id, then bad kind
    nodes = _write(tmp_path, "n.tsv", "".join(lines))
    with pytest.raises(DataError, match=r"^node file line 2: bad node id 'x'$"):
        load_graph(nodes, _write(tmp_path, "e.tsv", ""))


# ---------------------------------------------------------------------------
# Corpus keyword matching.
# ---------------------------------------------------------------------------

SERVICES = [
    ("machining", ServiceCategory.PROCESS),
    ("welding", ServiceCategory.PROCESS),
    ("casting", ServiceCategory.PROCESS),
]


def test_corpus_token_boundary_matching():
    docs = {"acme": "We offer CNC Machining and welding"}
    g = build_from_corpus(docs, SERVICES)
    hits = {g.nodes[v].name for v in g.neighbors[0]}
    assert hits == {"machining", "welding"}


def test_corpus_empty_doc_isolated_manufacturer():
    g = build_from_corpus({"acme": ""}, SERVICES)
    assert len(g.neighbor_ids(0)) == 0


def test_corpus_case_insensitive():
    g = build_from_corpus({"acme": "MACHINING"}, SERVICES)
    assert {g.nodes[v].name for v in g.neighbors[0]} == {"machining"}


def test_corpus_no_substring_false_hit():
    g = build_from_corpus({"acme": "ask for copperfield"}, [("copper", ServiceCategory.MATERIAL)])
    assert len(g.neighbor_ids(0)) == 0


def test_corpus_multiword_service_name():
    g = build_from_corpus(
        {"a": "certified to ISO 9001 since 2001", "b": "iso certified, 9001 pending"},
        [("ISO 9001", ServiceCategory.CERTIFICATION)],
    )
    assert len(g.neighbor_ids(0)) == 1
    assert len(g.neighbor_ids(1)) == 0  # tokens present but not adjacent


def test_corpus_duplicate_service_rejected():
    with pytest.raises(DataError, match="duplicate service"):
        build_from_corpus({"a": "x"}, [("m", ServiceCategory.PROCESS), ("m", ServiceCategory.MATERIAL)])


def test_corpus_service_edges_copied():
    g = build_from_corpus(
        {"a": "machining"},
        [("machining", ServiceCategory.PROCESS), ("metalwork", ServiceCategory.INDUSTRY)],
        [("machining", "metalwork")],
    )
    s1, s2 = g.find_service("machining"), g.find_service("metalwork")
    assert s2 in g.neighbors[s1]
    with pytest.raises(DataError, match="unknown service"):
        build_from_corpus({"a": "x"}, [("m", ServiceCategory.PROCESS)], [("m", "nope")])


def _regex_match_oracle(doc: str, name: str) -> bool:
    """Independent route: regex word-boundary search on normalized text."""
    norm = re.sub(r"[^0-9a-z]+", " ", doc.lower()).strip()
    needle = re.sub(r"[^0-9a-z]+", " ", name.lower()).strip()
    if not needle:
        return False
    return re.search(rf"(?<![0-9a-z]){re.escape(needle)}(?![0-9a-z])", norm) is not None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corpus_matcher_equals_regex_oracle(data):
    vocab = ["mill", "milling", "laser cut", "cut", "iso 9001", "anodizing"]
    words = ["mill", "milling", "laser", "cut", "iso", "9001", "anodizing", "and", "offer", "we"]
    doc = " ".join(data.draw(st.lists(st.sampled_from(words), min_size=0, max_size=12)))
    names = data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=6, unique=True))
    services = [(n, ServiceCategory.PROCESS) for n in names]
    g = build_from_corpus({"m": doc}, services)
    got = {g.nodes[v].name for v in g.neighbors[0]}
    expected = {n for n in names if _regex_match_oracle(doc, n)}
    assert got == expected


def test_tokenize_strips_punctuation_and_case():
    assert tokenize("CNC-Machining, Welding!") == ["cnc", "machining", "welding"]


# ---------------------------------------------------------------------------
# Type codes.
# ---------------------------------------------------------------------------


def test_blocks_equal_the_cuts_of_the_dense_adjacency_on_every_layout(tmp_path):
    # planted: I a run from 0, scattered from the keys; interleaved and SENG: I split, scattered through positions
    for layout, graph in graph_layouts(tmp_path).items():
        p, a = graph.num_nodes, graph.dense_adjacency()
        ids_i, ids_v, b, b_vi, c = graph.adjacency_blocks()
        rows_i, rows_v = np.arange(p)[ids_i], np.arange(p)[ids_v]
        assert rows_i.tolist() == np.flatnonzero(graph.is_manufacturer).tolist(), layout
        assert rows_v.tolist() == np.flatnonzero(~graph.is_manufacturer).tolist(), layout
        assert isinstance(ids_i, slice) == (layout == "planted")
        assert np.array_equal(b, a[np.ix_(rows_i, rows_v)]), layout
        assert np.array_equal(b_vi, a[np.ix_(rows_v, rows_i)]), layout
        assert np.array_equal(c, a[np.ix_(rows_v, rows_v)]), layout


def test_a_loaded_graph_builds_the_nodes_its_file_lists_on_first_use(tmp_path):
    lines = ["2\tservice\tmaterial\tsteel", "0\tmanufacturer\t-\tacme", "3\tmanufacturer\t-\tbolt co",
             "1\tservice\tcertification\tiso 9001"]
    (tmp_path / "nodes.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t3\n", encoding="utf-8")
    g = load_graph(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    assert "nodes" not in vars(g)  # read as columns
    want = tuple(NodeKind(Kind(kind), None if category == "-" else ServiceCategory(category), name)
                 for _, kind, category, name in sorted((line.split("\t") for line in lines), key=lambda f: int(f[0])))
    assert g.nodes == want
    assert g.codes.tolist() == [node.type_code for node in want] and g.names == tuple(n.name for n in want)
    assert g == Graph(want, [(0, 1), (1, 3)]) and g.find_manufacturer("bolt co") == 3


def test_type_codes_all_five_kinds(mixed_graph):
    codes = init_type_codes(mixed_graph)
    assert codes[0] == 0  # manufacturer
    assert codes[4] == 1  # industry
    assert codes[5] == 2  # process
    assert codes[6] == 3  # material
    assert codes[7] == 4  # certification


# ---------------------------------------------------------------------------
# Target masking.
# ---------------------------------------------------------------------------


def test_mask_target_degree_oracle():
    g = star_graph(4, "machining")
    task = mask_target(g, "machining")
    assert task.graph.num_nodes == g.num_nodes - 1
    assert int(task.labels.sum()) == 4
    assert len(task.removed_edges) == 4
    assert g.num_edges - task.graph.num_edges == len(g.neighbor_ids(4))


def test_mask_target_no_neighbors():
    nodes = [manufacturer("a"), service("lonely", ServiceCategory.MATERIAL)]
    task = mask_target(Graph(nodes, []), "lonely")
    assert task.labels.sum() == 0
    assert task.removed_edges == ()


def test_mask_target_label_soundness(mixed_graph):
    task = mask_target(mixed_graph, "machining")
    positives = {m for m, _ in task.removed_edges}
    for j in range(task.graph.num_nodes):
        expect = 1 if (j in positives and task.graph.nodes[j].is_manufacturer) else 0
        assert task.labels[j] == expect
    # the service-service edge (automotive, machining) was removed but not recorded
    assert all(task.graph.nodes[m].is_manufacturer for m in positives)


def test_mask_target_errors(mixed_graph):
    with pytest.raises(DataError, match="not found"):
        mask_target(mixed_graph, "unobtainium")
    with pytest.raises(DataError, match="manufacturer node"):
        mask_target(mixed_graph, "alpha")


def test_mask_preserves_other_service_edges(mixed_graph):
    task = mask_target(mixed_graph, "copper")
    # automotive-machining survives; ids below the target keep their values
    a, m = task.graph.find_service("automotive"), task.graph.find_service("machining")
    assert m in task.graph.neighbors[a]


def test_restore_target_round_trip(mixed_graph):
    task = mask_target(mixed_graph, "machining")
    restored, target_id = restore_target(task)
    assert restored.nodes[target_id].name == "machining"
    # same edge multiset up to the relabeled target position when the target
    # had only manufacturer neighbors; here one service edge is dropped
    task2 = mask_target(restored, "machining")
    assert task2.graph == task.graph
    assert np.array_equal(task2.labels, task.labels)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_masking_conservation_property(seed):
    rng = np.random.default_rng(seed)
    g = random_bipartite_graph(rng, 8, 5, 0.4)
    target = g.nodes[g.service_ids()[0]].name
    task = mask_target(g, target)
    # bipartite graphs: all removed edges are manufacturer edges, so the
    # conservation identity holds exactly
    assert g.num_edges == task.graph.num_edges + len(task.removed_edges)
    # adjacency symmetry of the masked graph
    a = task.graph.dense_adjacency()
    assert np.array_equal(a, a.T)
    assert np.trace(a) == 0


# ---------------------------------------------------------------------------
# Class statistics.
# ---------------------------------------------------------------------------


def test_imbalance_59_41():
    labels = np.array([0] * 59 + [1] * 41)
    stats = compute_imbalance(labels)
    assert stats.minority_label == 1
    assert stats.majority_size == 59
    assert stats.minority_size == 41
    assert stats.imbalance_ratio == pytest.approx(0.6949, abs=1e-4)


def test_imbalance_balanced():
    stats = compute_imbalance(np.array([0] * 50 + [1] * 50))
    assert stats.imbalance_ratio == 1.0


def test_imbalance_copper_style_majority_zero():
    # Copper-style distribution: majority class 0, ratio 19%
    labels = np.array([0] * 100 + [1] * 19)
    stats = compute_imbalance(labels)
    assert stats.minority_label == 1
    assert stats.imbalance_ratio == pytest.approx(0.19)


def test_imbalance_machining_style_majority_one():
    # Machining-style distribution: majority class 1
    labels = np.array([1] * 100 + [0] * 59)
    stats = compute_imbalance(labels)
    assert stats.minority_label == 0
    assert stats.imbalance_ratio == pytest.approx(0.59)


def test_imbalance_single_class_rejected():
    with pytest.raises(DataError, match="degenerate"):
        compute_imbalance(np.ones(10, dtype=int))


def test_imbalance_eligible_subset():
    labels = np.array([1, 1, 0, 0, 0, 1])
    stats = compute_imbalance(labels, [0, 2, 3])
    assert stats.minority_size == 1
    assert stats.majority_size == 2


# ---------------------------------------------------------------------------
# Stratified splits.
# ---------------------------------------------------------------------------


def test_split_proportions_100_nodes():
    labels = np.array([1] * 30 + [0] * 70)
    split = stratified_split(labels, (0.8, 0.1, 0.1), seed=3)
    train = split.train_ids
    train_pos = sum(labels[j] for j in train)
    assert abs(train_pos - 24) <= 1
    assert abs((len(train) - train_pos) - 56) <= 1
    assert sorted(split.assignment) == list(range(100))


def test_split_determinism():
    labels = np.array([1] * 12 + [0] * 28)
    a = stratified_split(labels, (0.8, 0.1, 0.1), seed=9)
    b = stratified_split(labels, (0.8, 0.1, 0.1), seed=9)
    assert a == b
    c = stratified_split(labels, (0.8, 0.1, 0.1), seed=10)
    assert a != c


def test_split_quarters_eight_positives():
    labels = np.array([1] * 8 + [0] * 16)
    split = stratified_split(labels, (0.5, 0.25, 0.25), seed=0)
    pos_counts = {
        s: sum(1 for j in split.ids(s) if labels[j] == 1) for s in Split
    }
    assert pos_counts == {Split.TRAIN: 4, Split.VALID: 2, Split.TEST: 2}


def test_split_class_too_small():
    labels = np.array([1] * 4 + [0] * 40)
    with pytest.raises(DataError, match="too small"):
        stratified_split(labels, (0.8, 0.1, 0.1), seed=0)


def test_split_bad_ratios():
    labels = np.array([1] * 10 + [0] * 10)
    with pytest.raises(DataError, match="sum to 1"):
        stratified_split(labels, (0.8, 0.1, 0.2), seed=0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(10, 60),
    st.integers(10, 60),
    st.integers(0, 2**32 - 1),
)
def test_split_proportion_property(n_pos, n_neg, seed):
    labels = np.array([1] * n_pos + [0] * n_neg)
    ratios = (0.8, 0.1, 0.1)
    split = stratified_split(labels, ratios, seed)
    for cls, count in ((1, n_pos), (0, n_neg)):
        for s, r in zip(Split, ratios):
            got = sum(1 for j in split.ids(s) if labels[j] == cls)
            assert abs(got - count * r) <= 1
    assert stratified_split(labels, ratios, seed) == split
