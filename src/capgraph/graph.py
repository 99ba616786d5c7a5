"""Graph data model for manufacturer-service knowledge graphs.

Nodes are either manufacturers or typed services (industry, process,
material, certification). Edges are undirected and unweighted; the graph
never contains manufacturer-manufacturer edges, self-loops, or parallel
edges. Node ids are dense integers 0..p-1.

Also provides file ingestion, keyword-match construction from a text
corpus, type-code initialization, target-service masking into a labeled
classification task, class-imbalance statistics, and stratified splits.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import attrgetter, is_
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError

MANUFACTURER_CODE = 0

_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Normalize text to lowercase tokens: punctuation stripped, whitespace collapsed."""
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


class Kind(Enum):
    MANUFACTURER = "manufacturer"
    SERVICE = "service"


class ServiceCategory(Enum):
    INDUSTRY = "industry"
    PROCESS = "process"
    MATERIAL = "material"
    CERTIFICATION = "certification"


# Type code per node kind: manufacturers 0, then the four service categories.
_CATEGORY_CODE = {
    ServiceCategory.INDUSTRY: 1,
    ServiceCategory.PROCESS: 2,
    ServiceCategory.MATERIAL: 3,
    ServiceCategory.CERTIFICATION: 4,
}


@dataclass(frozen=True)
class NodeKind:
    """Identity of one node: manufacturer or service, with category and display name."""

    kind: Kind
    category: ServiceCategory | None
    name: str

    def __post_init__(self) -> None:
        if self.kind is Kind.MANUFACTURER and self.category is not None:
            raise DataError(f"manufacturer node {self.name!r} must not carry a service category")
        if self.kind is Kind.SERVICE and self.category is None:
            raise DataError(f"service node {self.name!r} requires a category")
        if "\t" in self.name or "\n" in self.name:
            raise DataError(f"node name {self.name!r} contains tab/newline")

    @property
    def is_manufacturer(self) -> bool:
        return self.kind is Kind.MANUFACTURER

    @property
    def type_code(self) -> int:
        if self.kind is Kind.MANUFACTURER:
            return MANUFACTURER_CODE
        return _CATEGORY_CODE[self.category]  # type: ignore[index]


def manufacturer(name: str) -> NodeKind:
    return NodeKind(Kind.MANUFACTURER, None, name)


def service(name: str, category: ServiceCategory) -> NodeKind:
    return NodeKind(Kind.SERVICE, category, name)


class Graph:
    """Immutable undirected graph over manufacturer and service nodes.

    Construction validates endpoints, rejects self-loops and
    manufacturer-manufacturer edges, and collapses duplicate edges. The
    adjacency is held in CSR form: node u's neighbors are
    `indices[indptr[u]:indptr[u + 1]]`, in ascending order.
    """

    __slots__ = ("nodes", "is_manufacturer", "indptr", "indices", "num_edges",
                 "_ids", "_neighbors", "_blocks")

    def __init__(self, nodes: Sequence[NodeKind], edges: Iterable[tuple[int, int]] | np.ndarray):
        self.nodes: tuple[NodeKind, ...] = tuple(nodes)
        p = len(self.nodes)
        kinds = map(attrgetter("kind"), self.nodes)
        self.is_manufacturer = _frozen(
            np.fromiter(map(is_, kinds, repeat(Kind.MANUFACTURER)), dtype=bool, count=p)
        )
        pairs = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=np.int64)
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
        _check_edges(pairs, self.is_manufacturer)
        # each undirected edge once as the key lo * p + hi, sorted and deduplicated;
        # the files write_graph_files writes hold them so already
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * p + hi
        if not (np.diff(keys) > 0).all():
            keys = np.sort(keys)
            keys = keys[np.diff(keys, prepend=-1) != 0]
            lo = keys // p
            hi = keys - lo * p
        # CSR: row r lists the lo of each edge (lo, r), then the hi of each
        # edge (r, hi), both ascending. The keys give the second list in
        # order already; the first comes from sorting the reversed keys.
        below, above = np.bincount(hi, minlength=p), np.bincount(lo, minlength=p)
        lower = np.sort(hi * p + lo)  # r * p + lo for each edge (lo, r)
        is_lower = np.repeat(np.tile([True, False], p), np.column_stack([below, above]).ravel())
        indices = np.empty(2 * keys.size, dtype=np.int64)
        indices[is_lower] = lower - lower // p * p
        indices[~is_lower] = hi
        self.indices = _frozen(indices)
        self.indptr = _frozen(np.concatenate([[0], np.cumsum(below + above)]))
        self.num_edges: int = int(keys.size)
        self._ids: dict[tuple[bool, str], int] | None = None
        self._neighbors: tuple[tuple[int, ...], ...] | None = None
        self._blocks: tuple[np.ndarray, ...] | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the ascending tuple of its neighbor ids."""
        if self._neighbors is None:
            flat, bounds = self.indices.tolist(), self.indptr.tolist()
            self._neighbors = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._neighbors

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def neighbor_ids(self, node: int) -> np.ndarray:
        """Node's neighbors as an ascending int64 array (a view of `indices`)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def entry_rows(self) -> np.ndarray:
        """The row (source node) of every CSR entry, aligned with `indices`."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) int64 array of the edges (u, v), u < v, in ascending order."""
        rows = self.entry_rows()
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]])

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.edge_array().tolist()))

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        return map(tuple, self.edge_array().tolist())

    def manufacturer_ids(self) -> list[int]:
        return np.flatnonzero(self.is_manufacturer).tolist()

    def service_ids(self) -> list[int]:
        return np.flatnonzero(~self.is_manufacturer).tolist()

    def service_neighbors(self, node: int) -> list[int]:
        ns = self.neighbor_ids(node)
        return ns[~self.is_manufacturer[ns]].tolist()

    def find_service(self, name: str) -> int | None:
        return self._find(False, name)

    def find_manufacturer(self, name: str) -> int | None:
        return self._find(True, name)

    def _find(self, is_manufacturer: bool, name: str) -> int | None:
        """The first node of that kind and name; the index is built on first use."""
        if self._ids is None:
            keys = list(zip(self.is_manufacturer.tolist(), map(attrgetter("name"), self.nodes)))
            self._ids = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # the first one wins
        return self._ids.get((is_manufacturer, name))

    def dense_adjacency(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix with zero diagonal, float64."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        a[self.entry_rows(), self.indices] = 1.0
        return a

    def adjacency_blocks(self, keep: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """The adjacency as dense blocks (I, V, B, B_VI, C): manufacturer ids I,
        service ids V, B = A[I][:, V], B_VI = A[V][:, I] and C = A[V][:, V].
        There is no manufacturer-manufacturer block, so these hold all of A in
        n_m*n_s + n_s^2 doubles (B_VI is a view of B.T).

        `keep` (a mask over the CSR entries) restricts A to some entries of
        each row, a directed adjacency whose B_VI is then held apart. Without
        it the blocks are built on the first call and kept."""
        if keep is None and self._blocks is not None:
            return self._blocks
        man = self.is_manufacturer
        rows, cols = self.entry_rows(), self.indices
        if keep is not None:
            rows, cols = rows[keep], cols[keep]
        ids_i, ids_v = np.flatnonzero(man), np.flatnonzero(~man)
        pos = np.empty(self.num_nodes, dtype=np.int64)
        pos[ids_i] = np.arange(ids_i.size)
        pos[ids_v] = np.arange(ids_v.size)
        from_i, to_i = man[rows], man[cols]

        def block(hit: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
            out = np.zeros(shape)
            out[pos[rows[hit]], pos[cols[hit]]] = 1.0
            return _frozen(out)

        n_i, n_v = ids_i.size, ids_v.size
        b = block(from_i, (n_i, n_v))
        c = block(~from_i & ~to_i, (n_v, n_v))
        b_vi = b.T if keep is None else block(~from_i & to_i, (n_v, n_i))
        blocks = (_frozen(ids_i), _frozen(ids_v), b, b_vi, c)
        if keep is None:
            self._blocks = blocks
        return blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.indptr.tobytes(), self.indices.tobytes()))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_edges(pairs: np.ndarray, is_manufacturer: np.ndarray) -> None:
    """Raise for the first edge that dangles, is a self-loop, or joins two
    manufacturers."""
    p = is_manufacturer.size
    src, dst = pairs[:, 0], pairs[:, 1]
    if not pairs.size or (
        pairs.min() >= 0 and pairs.max() < p
        and not (src == dst).any()
        and not (is_manufacturer[src] & is_manufacturer[dst]).any()
    ):
        return
    dangling = (src < 0) | (src >= p) | (dst < 0) | (dst >= p)
    loop = ~dangling & (src == dst)
    man = np.append(is_manufacturer, False)  # index p: stands in for dangling ends
    both = man[np.where(dangling, p, src)] & man[np.where(dangling, p, dst)]
    k = int(np.argmax(dangling | loop | both))
    s, d = int(src[k]), int(dst[k])
    if dangling[k]:
        raise DataError(f"dangling endpoint in edge ({s}, {d}); node count is {p}")
    if loop[k]:
        raise DataError(f"self-loop on node {s}")
    raise DataError(f"manufacturer-manufacturer edge ({s}, {d}) is not allowed")


def init_type_codes(graph: Graph) -> np.ndarray:
    """Length-p integer vector of type codes (0 manufacturer .. 4 certification)."""
    return np.array([node.type_code for node in graph.nodes], dtype=np.int64)


# ---------------------------------------------------------------------------
# File ingestion.  Node file: `id<TAB>kind<TAB>category<TAB>name` per line,
# category `-` for manufacturers.  Edge file: `src<TAB>dst` per line.
# ---------------------------------------------------------------------------

_KIND_TOKENS = {k.value: k for k in Kind}
_CATEGORY_TOKENS = {c.value: c for c in ServiceCategory}
_TAB, _NEWLINE, _RETURN, _SPACE, _ZERO = b"\t\n\r 0"


def read_records(path: Path | str, fields: int, what: str) -> Iterator[tuple[int, list[str]]]:
    """The records of a UTF-8 line file as (line number, parts): each line
    that is not blank splits on tabs into exactly `fields` parts, the last
    taking the rest of the line. A line with fewer parts is a DataError
    naming `what`, the file and the line; a file that is not UTF-8, one
    naming `what` and the file."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t", fields - 1)
                if len(parts) != fields:
                    raise DataError(
                        f"{what} {path} line {lineno}: expected {fields} tab-separated fields, got {len(parts)}"
                    )
                yield lineno, parts
    except UnicodeDecodeError as exc:
        raise _not_utf8(what, path, exc) from None


def _not_utf8(what: str, path: Path | str, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{what} {path} is not UTF-8 text ({exc.reason})")


def read_exact(fh: BinaryIO, size: int, error: str) -> bytes:
    """The next `size` bytes of a binary file, or DataError(`error`) when
    fewer are left. The size is checked before reading, so a header that
    declares a huge block allocates nothing."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(error)
    return fh.read(size)


def _parse_node(parts: list[str], lineno: int) -> tuple[int, NodeKind]:
    raw_id, raw_kind, raw_category, name = parts
    try:
        node_id = int(raw_id)
    except ValueError:
        raise DataError(f"node file line {lineno}: bad node id {raw_id!r}") from None
    kind = _KIND_TOKENS.get(raw_kind)
    if kind is None:
        raise DataError(f"node file line {lineno}: unknown kind token {raw_kind!r}")
    if kind is Kind.MANUFACTURER:
        if raw_category != "-":
            raise DataError(f"node file line {lineno}: manufacturer category must be '-', got {raw_category!r}")
        return node_id, manufacturer(name)
    category = _CATEGORY_TOKENS.get(raw_category)
    if category is None:
        raise DataError(f"node file line {lineno}: unknown category token {raw_category!r}")
    return node_id, service(name, category)


def load_graph(node_file: Path | str, edge_file: Path | str) -> Graph:
    """Load a graph from node and edge files; duplicate edge lines collapse.

    Files in the form `write_graph_files` writes take a few whole-file
    passes; any other file goes through the per-line parsers, which accept
    the same files and name the line of the first fault."""
    node_path, edge_path = Path(node_file), Path(edge_file)
    nodes = _node_table(node_path)
    if nodes is None:
        nodes = _parse_node_lines(node_path)
    edges = _edge_table(edge_path.read_bytes())
    if edges is None:
        return Graph(nodes, _parse_edge_lines(_read_text(edge_path, "edge file"), len(nodes)))
    try:
        return Graph(nodes, edges)
    except DataError:  # names the line of a dangling endpoint or a self-loop
        _parse_edge_lines(_read_text(edge_path, "edge file"), len(nodes))
        raise


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(what, path, exc) from None


def _columns(path: Path, fields: int) -> list[list[str]] | None:
    """The fields of a UTF-8 file column by column, or None unless every line
    holds exactly `fields` tab-separated fields (so no line is blank); the
    per-line reader `read_records` then decides."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(b == _NEWLINE)
    if not text.endswith("\n"):
        ends = np.append(ends, b.size)
    tabs = np.flatnonzero(b == _TAB)
    if not ends.size or tabs.size != (fields - 1) * ends.size:
        return None
    tabs = tabs.reshape(ends.size, fields - 1)
    if (tabs[:, -1] > ends).any() or (tabs[1:, 0] < ends[:-1]).any():
        return None
    cells = text.replace("\n", "\t").split("\t")
    return [cells[k : fields * ends.size : fields] for k in range(fields)]


# (kind token, category token) -> (kind, category) of every valid node line
_NODE_TYPES = {
    (Kind.MANUFACTURER.value, "-"): (Kind.MANUFACTURER, None),
    **{(Kind.SERVICE.value, c.value): (Kind.SERVICE, c) for c in ServiceCategory},
}


def _node_table(node_path: Path) -> list[NodeKind] | None:
    """The nodes of a node file whose lines list ids 0, 1, ... in order, each
    with a valid kind and category; None for any other file."""
    columns = _columns(node_path, 4)
    if columns is None:
        return None
    ids, kinds, categories, names = columns
    types = list(map(_NODE_TYPES.get, zip(kinds, categories)))
    if ids != list(map(str, range(len(ids)))) or None in types:
        return None
    # _columns left no tab or newline in a name, and _NODE_TYPES holds only
    # valid pairs, so these nodes are made without NodeKind's per-node checks
    nodes = list(map(object.__new__, repeat(NodeKind, len(names))))
    for node, (kind, category), name in zip(nodes, types, names):
        object.__setattr__(node, "__dict__", {"kind": kind, "category": category, "name": name})
    return nodes


def _parse_node_lines(node_path: Path) -> list[NodeKind]:
    by_id: dict[int, NodeKind] = {}
    for lineno, parts in read_records(node_path, 4, "node file"):
        node_id, node = _parse_node(parts, lineno)
        if node_id in by_id:
            raise DataError(f"node file line {lineno}: duplicate node id {node_id}")
        by_id[node_id] = node
    if not by_id:
        raise DataError(f"node file {node_path} is empty")
    p = len(by_id)
    if sorted(by_id) != list(range(p)):
        raise DataError(f"node ids must be contiguous 0..{p - 1}")
    return [by_id[j] for j in range(p)]


_CHUNK_BYTES = 1 << 18
_RUN_MASKS = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], dtype=np.uint64)  # the top n bytes


def _edge_table(data: bytes) -> np.ndarray | None:
    """The edges of an edge file's bytes as an (m, 2) int64 array, parsed in
    chunks of whole lines. None unless every line is blank or holds two runs
    of at most 8 ASCII digits between spaces and tabs; `_parse_edge_lines`
    then decides and names the line. CR ends a line too: CRLF adds a blank
    line, which changes no edge."""
    # 8 newlines in front: every run has 8 bytes before its end, and every
    # chunk a newline before its first byte; the newline behind ends every line
    raw = b"\n" * 8 + data + b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    # at_byte[i]: the 8 bytes raw[i : i + 8] as a little-endian word
    at_byte = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    pieces = []
    begin = 8
    while begin < len(raw):
        end = raw.find(b"\n", begin + _CHUNK_BYTES) + 1 or len(raw)
        edges = _edge_chunk(buf[begin - 1 : end], at_byte, begin - 1)
        if edges is None:
            return None
        pieces.append(edges)
        begin = end
    return np.concatenate(pieces)


def _edge_chunk(b: np.ndarray, at_byte: np.ndarray, offset: int) -> np.ndarray | None:
    """`_edge_table` for whole lines `b`, which start and end with a newline
    and start at `offset` in the buffer that `at_byte` reads."""
    digit = b - _ZERO < 10  # uint8 arithmetic wraps the bytes below '0' above 9
    newline = (b == _NEWLINE) | (b == _RETURN)
    if not (digit | newline | (b == _TAB) | (b == _SPACE)).all():
        return None
    # digit runs: `digit` changes at a run's first byte and at the byte after it
    first, after = (np.flatnonzero(digit[1:] != digit[:-1]) + 1).reshape(-1, 2).T
    lengths = after - first
    if first.size % 2 or (lengths > 8).any():
        return None
    # a line's two runs have no newline between them, and a newline follows the second
    gap_newline = newline[after[:-1]]  # the gap's first byte
    wide = np.flatnonzero(first[1:] - after[:-1] > 1)
    if wide.size:
        ends = np.flatnonzero(newline)
        gap_newline[wide] = np.searchsorted(ends, after[wide]) < np.searchsorted(ends, first[wide + 1])
    if gap_newline[0::2].any() or not gap_newline[1::2].all():
        return None
    # each run as the word of the 8 bytes that end with it, the bytes before it
    # cleared, turned into its value by SWAR digit pairing
    words = at_byte[offset + after - 8] & _RUN_MASKS[lengths]
    words = (words & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    words = (words & 0x00FF00FF00FF00FF) * 6553601 >> 16
    words = (words & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
    return words.astype(np.int64).reshape(-1, 2)


def _parse_edge_lines(text: str, p: int) -> np.ndarray:
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"edge file line {lineno}: expected 'src<TAB>dst'")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"edge file line {lineno}: bad endpoint") from None
        if not (0 <= src < p and 0 <= dst < p):
            raise DataError(f"edge file line {lineno}: dangling endpoint ({src}, {dst})")
        if src == dst:
            raise DataError(f"edge file line {lineno}: self-loop on node {src}")
        edges.append((src, dst))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


_EDGE_ROWS = 8192


def write_graph_files(graph: Graph, node_file: Path | str, edge_file: Path | str) -> None:
    """Write canonical node/edge files (edges sorted, src < dst), every
    line ending in a newline."""
    middles = {category: f"\t{kind}\t{token}\t" for (kind, token), (_, category) in _NODE_TYPES.items()}
    Path(node_file).write_bytes("".join([
        f"{j}{middles[node.category]}{node.name}\n" for j, node in enumerate(graph.nodes)
    ]).encode("utf-8"))
    src, src_keep = _id_fields(graph.num_nodes, _TAB)
    dst, dst_keep = _id_fields(graph.num_nodes, _NEWLINE)
    edges = graph.edge_array()
    with Path(edge_file).open("wb") as fh:
        for at in range(0, len(edges), _EDGE_ROWS):
            u, v = edges[at : at + _EDGE_ROWS].T
            line = np.column_stack([src[u], dst[v]]).view(np.uint8)
            keep = np.column_stack([src_keep[u], dst_keep[v]]).view(bool)
            fh.write(line[keep].tobytes())


def _id_fields(p: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """Per id 0..p-1 one void scalar: its digits, zero-padded to the width of
    the widest id, and then the byte `end`. Also, in the same layout, the
    mask of the bytes that `f"{id}"` and `end` take."""
    width = len(str(max(p - 1, 0)))
    ids = np.arange(p)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1)
    field = np.full((p, width + 1), end, dtype=np.uint8)
    field[:, :width] = ids // powers % 10 + _ZERO
    keep = np.ones((p, width + 1), dtype=bool)
    keep[:, :width] = (ids >= powers) | (powers == 1)
    void = np.dtype((np.void, width + 1))
    return field.view(void).ravel(), keep.view(void).ravel()


def load_corpus(corpus_file: Path | str) -> dict[str, str]:
    """Read a corpus file: one `name<TAB>document-text` record per line."""
    docs: dict[str, str] = {}
    for lineno, (name, text) in read_records(corpus_file, 2, "corpus"):
        if name in docs:
            raise DataError(f"corpus line {lineno}: duplicate manufacturer name {name!r}")
        docs[name] = text
    if not docs:
        raise DataError("corpus is empty")
    return docs


def load_services(services_file: Path | str) -> list[tuple[str, ServiceCategory]]:
    """Read a service vocabulary: one `name<TAB>category` record per line."""
    services = []
    for lineno, (name, category) in read_records(services_file, 2, "services file"):
        if category not in _CATEGORY_TOKENS:
            raise DataError(f"services file line {lineno}: unknown category {category!r}")
        services.append((name, _CATEGORY_TOKENS[category]))
    return services


def load_service_edges(edges_file: Path | str) -> list[tuple[str, str]]:
    """Read service-service edges: one `name<TAB>name` record per line."""
    return [(a, b) for _, (a, b) in read_records(edges_file, 2, "service-edges file")]


def _contains_token_run(doc_tokens: Sequence[str], needle: Sequence[str]) -> bool:
    if not needle or len(needle) > len(doc_tokens):
        return False
    first = needle[0]
    span = len(needle)
    for i, tok in enumerate(doc_tokens[: len(doc_tokens) - span + 1]):
        if tok == first and list(doc_tokens[i : i + span]) == list(needle):
            return True
    return False


def build_from_corpus(
    docs: Mapping[str, str],
    services: Sequence[tuple[str, ServiceCategory]],
    service_edges: Sequence[tuple[str, str]] = (),
) -> Graph:
    """Build a graph by keyword-matching service names against manufacturer documents.

    One manufacturer node per document (in mapping order), one service node per
    entry of `services`. A manufacturer-service edge exists iff the normalized
    service name occurs as a token-boundary substring of the normalized
    document. Service-service edges are copied verbatim (referenced by name).
    """
    if not docs:
        raise DataError("corpus is empty")
    if not services:
        raise DataError("service vocabulary is empty")
    seen: set[str] = set()
    for name, _ in services:
        if not name:
            raise DataError("empty service name")
        if name in seen:
            raise DataError(f"duplicate service name {name!r}")
        seen.add(name)

    nodes = [manufacturer(name) for name in docs]
    n = len(nodes)
    nodes.extend(service(name, category) for name, category in services)
    service_id = {name: n + k for k, (name, _) in enumerate(services)}

    edges: list[tuple[int, int]] = []
    needles = [(service_id[name], tokenize(name)) for name, _ in services]
    for m, text in enumerate(docs.values()):
        doc_tokens = tokenize(text)
        for sid, needle in needles:
            if _contains_token_run(doc_tokens, needle):
                edges.append((m, sid))
    for a, b in service_edges:
        if a not in service_id or b not in service_id:
            missing = a if a not in service_id else b
            raise DataError(f"service edge references unknown service {missing!r}")
        edges.append((service_id[a], service_id[b]))
    return Graph(nodes, edges)


# ---------------------------------------------------------------------------
# Target masking and class statistics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledTask:
    """A target-masked graph with binary labels for one service.

    `removed_edges` records (manufacturer id in the masked graph, target name)
    for every manufacturer-target edge that masking deleted. Manufacturers with
    such an entry carry label 1; everything else is 0.
    """

    graph: Graph
    labels: np.ndarray
    target_name: str
    target_category: ServiceCategory
    removed_edges: tuple[tuple[int, str], ...]

    @property
    def positive_ids(self) -> list[int]:
        return [m for m, _ in self.removed_edges]


def mask_target(graph: Graph, target: str) -> LabeledTask:
    """Remove the target service node and its incident edges; label its former
    manufacturer neighbors 1 and everything else 0."""
    target_id = graph.find_service(target)
    if target_id is None:
        if graph.find_manufacturer(target) is not None:
            raise DataError(f"target {target!r} is a manufacturer node, not a service")
        raise DataError(f"target service {target!r} not found")
    target_node = graph.nodes[target_id]

    # Reindex: nodes above the target shift down by one.
    nodes = graph.nodes[:target_id] + graph.nodes[target_id + 1 :]
    edges = graph.edge_array()
    edges = edges[(edges != target_id).all(axis=1)]
    masked = Graph(nodes, edges - (edges > target_id))

    neighbors = graph.neighbor_ids(target_id)
    neighbors = neighbors[graph.is_manufacturer[neighbors]]
    positives = (neighbors - (neighbors > target_id)).tolist()
    labels = np.zeros(masked.num_nodes, dtype=np.int64)
    labels[positives] = 1
    removed = tuple((m, target) for m in positives)
    assert target_node.category is not None
    return LabeledTask(masked, labels, target, target_node.category, removed)


def restore_target(task: LabeledTask) -> tuple[Graph, int]:
    """Rebuild the unmasked graph by re-adding the target node (appended last)
    and its manufacturer edges. Returns (graph, target id)."""
    nodes = list(task.graph.nodes)
    target_id = len(nodes)
    nodes.append(service(task.target_name, task.target_category))
    added = np.array([(m, target_id) for m, _ in task.removed_edges], dtype=np.int64)
    return Graph(nodes, np.vstack([task.graph.edge_array(), added.reshape(-1, 2)])), target_id


@dataclass(frozen=True)
class ClassStats:
    majority_size: int
    minority_size: int
    minority_label: int
    imbalance_ratio: float


def compute_imbalance(labels: np.ndarray, eligible: Iterable[int] | None = None) -> ClassStats:
    """Majority/minority counts and |c2|/|c1| ratio over the eligible node set."""
    lab = np.asarray(labels)
    if eligible is not None:
        idx = np.fromiter(eligible, dtype=np.int64)
        if idx.size == 0:
            raise DataError("eligible node set is empty")
        lab = lab[idx]
    ones = int(np.count_nonzero(lab == 1))
    zeros = int(lab.size - ones)
    if ones == 0 or zeros == 0:
        raise DataError("degenerate class distribution: only one class present")
    if ones <= zeros:
        return ClassStats(zeros, ones, 1, ones / zeros)
    return ClassStats(ones, zeros, 0, zeros / ones)


# ---------------------------------------------------------------------------
# Stratified splits.
# ---------------------------------------------------------------------------


class Split(Enum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"


@dataclass(frozen=True)
class SplitAssignment:
    """Node -> split map over the labeled node set."""

    assignment: dict[int, Split]
    seed: int

    def ids(self, split: Split) -> list[int]:
        return sorted(j for j, s in self.assignment.items() if s is split)

    @property
    def train_ids(self) -> list[int]:
        return self.ids(Split.TRAIN)

    @property
    def valid_ids(self) -> list[int]:
        return self.ids(Split.VALID)

    @property
    def test_ids(self) -> list[int]:
        return self.ids(Split.TEST)


def _largest_remainder(count: int, ratios: Sequence[float]) -> list[int]:
    targets = [count * r for r in ratios]
    counts = [int(t) for t in targets]
    remainder = count - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (targets[i] - counts[i], -i), reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def stratified_split(
    labels: np.ndarray,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitAssignment:
    """Per-class shuffle by seed, then proportional train/valid/test assignment.

    Each class-split cell is within +-1 node of count*ratio (largest remainder);
    deterministic for a fixed seed.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    if any(r <= 0 for r in ratios):
        raise DataError(f"split ratios must be positive, got {ratios}")
    lab = np.asarray(labels)
    rng = np.random.default_rng(seed)
    assignment: dict[int, Split] = {}
    for cls in (0, 1):
        members = np.flatnonzero(lab == cls)
        if members.size == 0:
            raise DataError(f"class {cls} has no members")
        rng.shuffle(members)
        counts = _largest_remainder(members.size, ratios)
        if any(c == 0 for c in counts):
            raise DataError(
                f"class {cls} is too small to populate all three splits ({members.size} members)"
            )
        offsets = np.cumsum([0] + counts)
        for split, lo, hi in zip(Split, offsets[:-1], offsets[1:]):
            for j in members[lo:hi]:
                assignment[int(j)] = split
    return SplitAssignment(assignment, seed)


def write_assignment(path: Path | str, split: SplitAssignment, labels: np.ndarray) -> None:
    """Write `node<TAB>split<TAB>label` for every node."""
    lines = [f"{j}\t{split.assignment[j].value}\t{int(label)}\n" for j, label in enumerate(labels)]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_assignment(path: Path | str, num_nodes: int, seed: int) -> tuple[np.ndarray, SplitAssignment]:
    """Read a `write_assignment` file for a graph of `num_nodes` nodes: the
    labels (0 or 1; 0 for an unlisted node) and the split of the listed nodes.
    A node listed twice is a DataError."""
    splits = {s.value: s for s in Split}
    labels = np.zeros(num_nodes, dtype=np.int64)
    columns = _columns(Path(path), 3)
    if columns is not None:
        ids, names, raw_labels = columns
        text = "".join(raw_labels)
        if (
            len(ids) <= num_nodes
            and ids == list(map(str, range(len(ids))))
            and set(names) <= splits.keys()
            and text.strip("01") == ""
            and len(text) == len(ids)
        ):
            labels[: len(ids)] = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - _ZERO
            return labels, SplitAssignment(dict(enumerate(map(splits.__getitem__, names))), seed)
    assignment: dict[int, Split] = {}
    for lineno, (raw_id, split_name, raw_label) in read_records(path, 3, "assignment file"):
        try:
            j, label = int(raw_id), int(raw_label)
        except ValueError:
            raise DataError(f"assignment.tsv line {lineno}: node id and label must be integers") from None
        if raw_label not in ("0", "1"):
            raise DataError(f"assignment.tsv line {lineno}: label must be 0 or 1, got {raw_label!r}")
        if not 0 <= j < num_nodes:
            raise DataError(f"assignment.tsv line {lineno}: node id {j} out of range")
        if split_name not in splits:
            raise DataError(f"assignment.tsv line {lineno}: unknown split {split_name!r}")
        if j in assignment:
            raise DataError(f"assignment.tsv line {lineno}: duplicate node id {j}")
        assignment[j] = splits[split_name]
        labels[j] = label
    return labels, SplitAssignment(assignment, seed)
