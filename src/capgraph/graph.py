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
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress, count, repeat
from operator import attrgetter, eq, is_not
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError

MANUFACTURER_CODE = 0
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, valid, test

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


# Type code per node kind: manufacturers 0, then the four service categories 1-4 in the order above.
_CATEGORY_CODE = {category: code for code, category in enumerate(ServiceCategory, start=1)}
_CODE_TYPES = ((Kind.MANUFACTURER, None), *((Kind.SERVICE, category) for category in ServiceCategory))  # by code


@dataclass(frozen=True, slots=True)
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


class NodeColumns(NamedTuple):
    """Nodes as two columns: each node's type code (`NodeKind.type_code`,
    int8) and its name. `Graph` takes them as they are: they must hold only
    what `NodeKind` accepts."""

    codes: np.ndarray
    names: tuple[str, ...]


class Graph:
    """Immutable undirected graph over manufacturer and service nodes.

    Construction validates endpoints, rejects self-loops and
    manufacturer-manufacturer edges, and collapses duplicate edges. The
    nodes are given as `NodeKind`s or as `NodeColumns`, and held as the
    columns `codes` and `names`; the `NodeKind` tuple `nodes` is built from
    them on first use. The edges are their keys: each edge (u, v), u < v,
    once as u * p + v, ascending. The CSR form (node u's neighbors are
    `indices[indptr[u]: indptr[u + 1]]`, ascending) is derived from them on
    first use."""

    def __init__(self, nodes: Sequence[NodeKind] | NodeColumns, edges: Iterable[tuple[int, int]] | np.ndarray):
        if isinstance(nodes, NodeColumns):
            codes, self.names = nodes
        else:
            self.nodes = tuple(nodes)
            codes = np.array([node.type_code for node in self.nodes], dtype=np.int8)
            self.names = tuple(map(attrgetter("name"), self.nodes))
        self.codes = _frozen(np.asarray(codes, dtype=np.int8))
        p = self.codes.size
        self.is_manufacturer = _frozen(self.codes == MANUFACTURER_CODE)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        ordered = (src < dst).all()  # every edge written (u, v), u < v, as edge files hold them: no self-loop
        _check_edges(pairs, self.is_manufacturer, ordered)
        keys = src * p + dst if ordered else np.minimum(src, dst) * p + np.maximum(src, dst)
        if not (keys[1:] > keys[:-1]).all():  # edges in ascending order, as edge files hold them, skip the sort
            keys.sort()  # not np.unique: it hashes before it sorts, 20x slower on 127,000 keys
            keys = keys[np.diff(keys, prepend=-1) != 0]
        self.keys = _frozen(keys)
        self.num_edges: int = keys.size
        self._blocks: tuple | None = None

    @cached_property
    def nodes(self) -> tuple[NodeKind, ...]:
        """The nodes as `NodeKind`s, built from the columns on first use."""
        types = map(_CODE_TYPES.__getitem__, self.codes.tolist())
        return tuple(NodeKind(kind, category, name) for (kind, category), name in zip(types, self.names))

    @property
    def num_nodes(self) -> int:
        return len(self.names)

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): row r holds lo of each edge (lo, r), then hi of each edge (r, hi)."""
        p = self.num_nodes
        lo, hi = self.edge_array().T
        below, above = np.bincount(hi, minlength=p), np.bincount(lo, minlength=p)
        lower = np.sort(hi * p + lo)  # r * p + lo for each edge (lo, r)
        is_lower = np.repeat(np.tile([True, False], p), np.column_stack([below, above]).ravel())
        indices = np.empty(2 * lo.size, dtype=np.int64)
        indices[is_lower] = lower % p
        indices[~is_lower] = hi
        return _frozen(np.concatenate([[0], np.cumsum(below + above)])), _frozen(indices)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the ascending tuple of its neighbor ids."""
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def neighbor_ids(self, node: int) -> np.ndarray:
        """Node's neighbors as an ascending int64 array (a view of `indices`)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def entry_rows(self) -> np.ndarray:
        """The row (source node) of every CSR entry, aligned with `indices`."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) read-only int64 array of the edges (u, v), u < v, ascending."""
        edges = np.empty((self.num_edges, 2), dtype=np.int64)
        np.divmod(self.keys, self.num_nodes, out=(edges[:, 0], edges[:, 1]))  # no temporaries to fragment the heap
        return _frozen(edges)

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
        """The first node of that kind and name: a scan, with no index to build."""
        named = compress(count(), map(eq, self.names, repeat(name)))
        return next((at for at in named if self.is_manufacturer[at] == is_manufacturer), None)

    def dense_adjacency(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix with zero diagonal, float64."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        lo, hi = self.edge_array().T
        a[lo, hi] = a[hi, lo] = 1.0
        return a

    def adjacency_blocks(self, keep: np.ndarray | None = None) -> tuple:
        """The adjacency as dense blocks (I, V, B, B_VI, C): manufacturer ids I,
        service ids V, B = A[I][:, V], B_VI = A[V][:, I] and C = A[V][:, V].
        There is no manufacturer-manufacturer block, so these hold all of A in
        n_m*n_s + n_s^2 doubles (B_VI is a view of B.T). I and V are each a
        `slice` when their ids form one contiguous run (manufacturers first,
        as `gen-planted` and `build --corpus` list them), so that `x[I]` is
        a view; otherwise an ascending index array.

        Without `keep` the blocks are scattered from the edge keys (each edge
        once into B, or both ways into C) on the first call and kept. `keep`, a
        mask over the CSR entries, restricts A to some entries of each row: a
        directed adjacency, whose B_VI is held apart."""
        if keep is None and self._blocks is not None:
            return self._blocks
        man, p = self.is_manufacturer, self.num_nodes
        ids_i, ids_v = np.flatnonzero(man), np.flatnonzero(~man)
        n_i, n_v = ids_i.size, ids_v.size
        pos = np.empty(p, dtype=np.int64)  # each node's position in I or in V
        pos[ids_i], pos[ids_v] = np.arange(n_i), np.arange(n_v)
        if keep is None:
            keys = self.keys
            if n_i and ids_i[-1] != n_i - 1:  # I is not 0..n_i-1: the keys of the nodes relabelled to I, then V
                order = pos + n_i * ~man
                lo, hi = order[keys // p], order[keys % p]
                keys = np.minimum(lo, hi) * p + np.maximum(lo, hi)
            # a key below n_i * p is an edge (m, s), m in I and s in V, at B's flat index
            # m * n_v + s - n_i; the keys above it join two services
            at_b = keys < n_i * p
            b, c, in_b = np.zeros(n_i * n_v), np.zeros((n_v, n_v)), keys[at_b]
            b[in_b - (in_b // p + 1) * n_i] = 1.0
            lo, hi = np.divmod(keys[~at_b] - n_i * (p + 1), p)
            c[lo, hi] = c[hi, lo] = 1.0
            b = _frozen(b.reshape(n_i, n_v))
            self._blocks = (_id_run(ids_i), _id_run(ids_v), b, b.T, _frozen(c))
            return self._blocks

        def block(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
            out = np.zeros(shape)
            out[pos[rows], pos[cols]] = 1.0
            return _frozen(out)

        rows, cols = self.entry_rows()[keep], self.indices[keep]
        from_i, to_i = man[rows], man[cols]
        vi, vv = ~from_i & to_i, ~from_i & ~to_i
        return (_id_run(ids_i), _id_run(ids_v), block(rows[from_i], cols[from_i], (n_i, n_v)),
                block(rows[vi], cols[vi], (n_v, n_i)), block(rows[vv], cols[vv], (n_v, n_v)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.names == other.names and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.keys, other.keys))

    def __hash__(self) -> int:
        return hash((self.names, self.codes.tobytes(), self.keys.tobytes()))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _id_run(ids: np.ndarray) -> slice | np.ndarray:
    """Ascending ids as a slice when they are one contiguous run (no ids are
    the empty run), else the read-only array itself."""
    start = int(ids[0]) if ids.size else 0
    if ids.size == 0 or ids[-1] - start == ids.size - 1:
        return slice(start, start + ids.size)
    return _frozen(ids)


class _EdgeFault(DataError):
    """A faulty edge: its `row` in the edge list, and the `fault` that an
    edge file reports on the row's line."""

    def __init__(self, message: str, row: int, fault: str):
        super().__init__(message)
        self.row, self.fault = row, fault


def _check_edges(pairs: np.ndarray, is_manufacturer: np.ndarray, ordered: bool) -> None:
    """Raise an `_EdgeFault` for the first edge that dangles, is a
    self-loop, or joins two manufacturers. `ordered`: each edge (u, v) has
    u < v, so none is a self-loop."""
    p = is_manufacturer.size
    src, dst = pairs[:, 0], pairs[:, 1]
    if not pairs.size or (
        pairs.min() >= 0 and pairs.max() < p
        and (ordered or not (src == dst).any())
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
        fault = f"dangling endpoint ({s}, {d})"
        raise _EdgeFault(f"dangling endpoint in edge ({s}, {d}); node count is {p}", k, fault)
    fault = f"self-loop on node {s}" if loop[k] else f"manufacturer-manufacturer edge ({s}, {d}) is not allowed"
    raise _EdgeFault(fault, k, fault)


def init_type_codes(graph: Graph) -> np.ndarray:
    """Length-p integer vector of type codes (0 manufacturer .. 4 certification)."""
    return graph.codes.astype(np.int64)


# ---------------------------------------------------------------------------
# File ingestion.  Node file: `id<TAB>kind<TAB>category<TAB>name` per line,
# category `-` for manufacturers.  Edge file: `src<TAB>dst` per line.
# ---------------------------------------------------------------------------

_KIND_TOKENS = {k.value: k for k in Kind}
_CATEGORY_TOKENS = {c.value: c for c in ServiceCategory}
_TAB, _NEWLINE, _SPACE, _ZERO = b"\t\n 0"


def _records(path: Path | str, fields: int, what: str) -> tuple[list[int], list[Sequence[str]], DataError | None]:
    """The line numbers of the records of a UTF-8 line file and their parts,
    column by column: each line that is not blank splits on tabs into
    exactly `fields` parts, the last taking the rest of the line. LF, CR and
    CRLF end a line. The records stop at the first line with fewer parts, or
    that is not UTF-8, and come with the DataError for it, which names
    `what`, the file and the line, or `what` and the file."""
    data = Path(path).read_bytes()
    try:
        text, error = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:  # the lines before the undecodable one are read
        text, error = data[: exc.start].decode("utf-8"), _not_utf8(what, path, exc)
        text = text[: max(text.rfind("\n"), text.rfind("\r")) + 1]
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    stripped = list(map(str.strip, lines))  # empty for a blank line
    linenos, lines = list(compress(count(1), stripped)), list(compress(lines, stripped))
    tabs = list(map(str.count, lines, repeat("\t")))
    if tabs and min(tabs) < fields - 1:  # the records stop at the first short line
        k = next(compress(count(), map((fields - 1).__gt__, tabs)))
        error = DataError(f"{what} {path} line {linenos[k]}: expected {fields} tab-separated fields, got {tabs[k] + 1}")
        del linenos[k:], lines[k:]
    columns = list(zip(*map(str.split, lines, repeat("\t"), repeat(fields - 1))))
    return linenos, columns or [()] * fields, error  # no records: `fields` empty columns


def _not_utf8(what: str, path: Path | str, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{what} {path} is not UTF-8 text ({exc.reason})")


def read_exact(fh: BinaryIO, size: int, error: str) -> bytes:
    """The next `size` bytes of a binary file, or DataError(`error`) when
    fewer are left. The size is checked before reading, so a header that
    declares a huge block allocates nothing."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(error)
    return fh.read(size)


def _raise_first(what: str, linenos: list[int], checks: list[tuple[list[bool], Callable[[int], str]]],
                 error: DataError | None) -> None:
    """Raise for the earliest record that fails a check, naming its line, or
    else raise `error`, which ended the records. `checks` lists, in the
    order one line is checked, per record whether it passes, and the
    message for record k."""
    hits = [(passed.index(False), order) for order, (passed, _) in enumerate(checks) if not all(passed)]
    if hits:
        k, order = min(hits)
        raise DataError(f"{what} line {linenos[k]}: {checks[order][1](k)}")
    if error is not None:
        raise error


def _integer(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _firsts(values: list) -> list[bool]:
    """Per value, whether no equal value comes before it."""
    first = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
    return list(map(eq, map(first.__getitem__, values), count()))


# (kind token, category token) of each type code, in code order: the tokens of every valid node line
_TYPE_TOKENS = ((Kind.MANUFACTURER.value, "-"), *((Kind.SERVICE.value, c.value) for c in ServiceCategory))
_TYPE_CODES = {tokens: code for code, tokens in enumerate(_TYPE_TOKENS)}


def _read_nodes(path: Path) -> NodeColumns:
    """The nodes of a node file, its lines in any order, by id."""
    linenos, (raw_ids, kinds, categories, names), error = _records(path, 4, "node file")
    ids = list(map(_integer, raw_ids))
    codes = list(map(_TYPE_CODES.get, zip(kinds, categories)))
    _raise_first("node file", linenos, [
        (list(map(is_not, ids, repeat(None))), lambda k: f"bad node id {raw_ids[k]!r}"),
        (list(map(_KIND_TOKENS.__contains__, kinds)), lambda k: f"unknown kind token {kinds[k]!r}"),
        (list(map(is_not, codes, repeat(None))),
         lambda k: f"manufacturer category must be '-', got {categories[k]!r}"
         if kinds[k] == Kind.MANUFACTURER.value else f"unknown category token {categories[k]!r}"),
        (["\t" not in name for name in names], lambda k: f"node name {names[k]!r} contains tab/newline"),
        (_firsts(ids), lambda k: f"duplicate node id {ids[k]}"),
    ], error)
    p = len(ids)
    if not p:
        raise DataError(f"node file {path} is empty")
    if min(ids) != 0 or max(ids) != p - 1:  # the ids are distinct
        raise DataError(f"node ids must be contiguous 0..{p - 1}")
    if ids != list(range(p)):
        order = sorted(range(p), key=ids.__getitem__)
        codes, names = list(map(codes.__getitem__, order)), list(map(names.__getitem__, order))
    return NodeColumns(np.array(codes, dtype=np.int8), tuple(names))


def load_graph(node_file: Path | str, edge_file: Path | str) -> Graph:
    """Load a graph from node and edge files; duplicate edge lines collapse.

    Each file is read once. A fault is a DataError that names a line: in the
    node file the earliest line that any check rejects; in the edge file the
    first line that does not parse or, when every line parses, the first
    edge that `Graph` rejects."""
    columns, edge_path = _read_nodes(Path(node_file)), Path(edge_file)
    data = edge_path.read_bytes()
    try:
        data.isascii() or data.decode("utf-8")  # ASCII is UTF-8 already
    except UnicodeDecodeError as exc:
        raise _not_utf8("edge file", edge_path, exc) from None
    try:
        return Graph(columns, _edge_table(data))
    except _EdgeFault as exc:
        # edge k is on the k-th line that is not blank; splitlines ends lines at LF, CR and CRLF
        line = list(compress(count(1), map(bytes.strip, data.splitlines())))[exc.row]
        raise DataError(f"edge file line {line}: {exc.fault}") from None


# Small chunks keep each pass's temporaries small: at 64 KB, later `predict`
# calls in the same process ran about 40% slower (4,120 nodes, 2 vCPUs).
_CHUNK_BYTES = 1 << 15
_RUN_MASKS = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], dtype=np.uint64)  # the top n bytes


def _edge_table(data: bytes) -> np.ndarray:
    """The edges of an edge file's bytes as an (m, 2) int64 array, parsed in
    chunks of whole lines. A line is blank or holds two endpoints of 1-8
    ASCII digits between spaces and tabs, and LF, CR and CRLF end it. Any
    other line is a DataError that names the first such line."""
    if b"\r" in data:  # CR and CRLF end a line as LF does
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # 8 newlines in front: every field has 8 bytes before its end, and every
    # chunk a newline before its first byte; a newline behind ends every line
    raw = b"\n" * 8 + data + (b"" if data.endswith(b"\n") else b"\n")
    buf = np.frombuffer(raw, dtype=np.uint8)
    # at_byte[i]: the 8 bytes raw[i : i + 8] as a little-endian word
    at_byte = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    pieces = []
    begin = 8
    while begin < len(raw):
        end = raw.find(b"\n", begin + _CHUNK_BYTES) + 1 or len(raw)
        pieces.append(_edge_chunk(buf, at_byte, begin - 1, end))
        begin = end
    return np.concatenate(pieces)


def _edge_chunk(buf: np.ndarray, at_byte: np.ndarray, start: int, end: int) -> np.ndarray:
    """`_edge_table` for the whole lines buf[start:end], which start and end
    with a newline; `at_byte` reads the words of `buf`."""
    b = buf[start:end]
    newline = b == _NEWLINE
    blank = newline | (b == _TAB) | (b == _SPACE)
    # fields: `blank` changes at a field's first byte and at the byte after it
    first, ends = (np.flatnonzero(blank[1:] != blank[:-1]) + 1).reshape(-1, 2).T
    lengths = ends - first
    valid = first.size % 2 == 0 and (lengths <= 8).all() and ((b - _ZERO < 10) | blank).all()
    if valid:
        # a line's two fields have no newline between them, and a newline follows the second
        gap_newline = newline[ends[:-1]]  # the gap's first byte
        wide = np.flatnonzero(first[1:] - ends[:-1] > 1)
        if wide.size:
            lines = np.flatnonzero(newline)
            gap_newline[wide] = np.searchsorted(lines, ends[wide]) < np.searchsorted(lines, first[wide + 1])
        valid = not gap_newline[0::2].any() and gap_newline[1::2].all()
    if not valid:  # the first faulty line: it has other than two fields, or a field that is not 1-8 digits
        bad_field = np.logical_or.reduceat(~blank & (b - _ZERO >= 10), first) | (lengths > 8)
        _, line, fields = np.unique(np.cumsum(newline)[first], return_inverse=True, return_counts=True)
        wrong_count = (fields != 2)[line]
        k = int(np.argmax(bad_field | wrong_count))
        fault = "expected 'src<TAB>dst'" if wrong_count[k] else "bad endpoint"
        raise DataError(f"edge file line {np.count_nonzero(buf[8 : start + first[k]] == _NEWLINE) + 1}: {fault}")
    # each field as the word of the 8 bytes that end with it, the bytes before
    # it cleared, turned into its value by SWAR digit pairing
    words = at_byte[start + ends - 8] & _RUN_MASKS[lengths]
    words = (words & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    words = (words & 0x00FF00FF00FF00FF) * 6553601 >> 16
    words = (words & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
    return words.astype(np.int64).reshape(-1, 2)


_EDGE_ROWS = 8192


def write_graph_files(graph: Graph, node_file: Path | str, edge_file: Path | str) -> None:
    """Write canonical node/edge files (edges sorted, src < dst), every
    line ending in a newline."""
    middles = [f"\t{kind}\t{category}\t" for kind, category in _TYPE_TOKENS]
    Path(node_file).write_bytes("".join([
        f"{j}{middles[code]}{name}\n" for j, (code, name) in enumerate(zip(graph.codes.tolist(), graph.names))
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


# ---------------------------------------------------------------------------
# Binary graph file: magic, node and edge counts (<QQ), one int8 type code
# per node, the ascending int64 edge keys u * p + v, then the UTF-8 names
# joined by newlines.
# ---------------------------------------------------------------------------

_GRAPH_MAGIC = b"CGGR"


def save_graph(graph: Graph, path: Path | str) -> None:
    """Write the graph's columns and edge keys as one binary file."""
    with Path(path).open("wb") as fh:
        fh.write(_GRAPH_MAGIC)
        fh.write(struct.pack("<QQ", graph.num_nodes, graph.num_edges))
        fh.write(graph.codes.tobytes())
        fh.write(graph.keys.astype("<i8", copy=False).tobytes())
        fh.write("\n".join(graph.names).encode("utf-8"))


def load_saved_graph(path: Path | str) -> Graph:
    """The graph of a file written by `save_graph`. Only the container is
    checked here: its sizes, the type codes, and one UTF-8 name without a tab
    per node. The edges then pass `Graph`'s own checks. Every fault is a
    DataError that names the file."""
    with Path(path).open("rb") as fh:
        if fh.read(4) != _GRAPH_MAGIC:
            raise DataError(f"{path}: not a capgraph graph file")
        p, m = struct.unpack("<QQ", read_exact(fh, 16, f"{path}: truncated graph header"))
        codes = np.frombuffer(read_exact(fh, p, f"{path}: truncated type codes"), dtype=np.uint8)
        keys = np.frombuffer(read_exact(fh, 8 * m, f"{path}: truncated edge keys"), dtype="<i8")
        data = fh.read()
    if p and codes.max() >= len(_TYPE_TOKENS):
        raise DataError(f"{path}: unknown type code {codes.max()}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: node names are not UTF-8 ({exc.reason})") from None
    names = tuple(text.split("\n"))
    if len(names) != p:
        raise DataError(f"{path}: {len(names)} node names for {p} nodes")
    if "\t" in text:
        raise DataError(f"{path}: a node name contains a tab")
    edges = np.empty((m, 2), dtype=np.int64)
    np.divmod(keys, p, out=(edges[:, 0], edges[:, 1]))
    try:
        return Graph(NodeColumns(codes.view(np.int8), names), edges)
    except _EdgeFault as exc:
        raise DataError(f"{path}: edge key {keys[exc.row]}: {exc.fault}") from None


def load_corpus(corpus_file: Path | str) -> dict[str, str]:
    """Read a corpus file: one `name<TAB>document-text` record per line."""
    linenos, (names, texts), error = _records(corpus_file, 2, "corpus")
    _raise_first("corpus", linenos, [(_firsts(names), lambda k: f"duplicate manufacturer name {names[k]!r}")], error)
    if not names:
        raise DataError("corpus is empty")
    return dict(zip(names, texts))


def load_services(services_file: Path | str) -> list[tuple[str, ServiceCategory]]:
    """Read a service vocabulary: one `name<TAB>category` record per line."""
    linenos, (names, categories), error = _records(services_file, 2, "services file")
    _raise_first("services file", linenos, [
        (list(map(_CATEGORY_TOKENS.__contains__, categories)), lambda k: f"unknown category {categories[k]!r}"),
    ], error)
    return list(zip(names, map(_CATEGORY_TOKENS.__getitem__, categories)))


def load_service_edges(edges_file: Path | str) -> list[tuple[str, str]]:
    """Read service-service edges: one `name<TAB>name` record per line."""
    linenos, (sources, targets), error = _records(edges_file, 2, "service-edges file")
    _raise_first("service-edges file", linenos, [], error)
    return list(zip(sources, targets))


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

    # a service name matches where its tokens occur, space-joined, between
    # spaces in the document's space-joined tokens
    needles = [(service_id[name], f" {' '.join(tokenize(name))} ") for name, _ in services if tokenize(name)]
    texts = [f" {' '.join(tokenize(text))} " for text in docs.values()]
    edges = [(m, sid) for m, text in enumerate(texts) for sid, needle in needles if needle in text]
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
    _, category = _CODE_TYPES[graph.codes[target_id]]

    # Reindex: nodes above the target shift down by one, which keeps the edges in key order.
    columns = NodeColumns(np.delete(graph.codes, target_id), graph.names[:target_id] + graph.names[target_id + 1 :])
    edges = graph.edge_array()
    at_target = edges == target_id
    neighbors = edges[at_target[:, ::-1] & graph.is_manufacturer[edges]]  # manufacturer ends of target edges, ascending
    edges = edges[~at_target.any(axis=1)]
    masked = Graph(columns, edges - (edges > target_id))

    positives = (neighbors - (neighbors > target_id)).tolist()
    labels = np.zeros(masked.num_nodes, dtype=np.int64)
    labels[positives] = 1
    removed = tuple((m, target) for m in positives)
    return LabeledTask(masked, labels, target, category, removed)


def restore_target(task: LabeledTask) -> tuple[Graph, int]:
    """Rebuild the unmasked graph by re-adding the target node (appended last)
    and its manufacturer edges. Returns (graph, target id)."""
    g = task.graph
    columns = NodeColumns(np.append(g.codes, _CATEGORY_CODE[task.target_category]), (*g.names, task.target_name))
    target_id = g.num_nodes
    added = np.array([(m, target_id) for m, _ in task.removed_edges], dtype=np.int64).reshape(-1, 2)
    return Graph(columns, append_edges(g.edge_array(), added)), target_id


def append_edges(edges: np.ndarray, added: np.ndarray) -> np.ndarray:
    """Ascending edges (u, v), u < v, merged with the ascending edges `added`, whose v lies
    above every id in `edges`: each goes behind the edges of its u, so the merge needs no sort."""
    return np.insert(edges, np.searchsorted(edges[:, 0], added[:, 0], side="right"), added, axis=0)


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
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
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
    """Read a `write_assignment` file for a graph of `num_nodes` nodes, its
    lines in any order: the labels (0 or 1; 0 for an unlisted node) and the
    split of the listed nodes. A fault, such as a node listed twice, is a
    DataError that names the earliest faulty line."""
    splits = {s.value: s for s in Split}
    linenos, (raw_ids, names, raw_labels), error = _records(path, 3, "assignment file")
    ids = list(map(_integer, raw_ids))
    bits = list(map({"0": 0, "1": 1}.get, raw_labels))
    _raise_first("assignment.tsv", linenos, [
        ([i is not None and (b is not None or _integer(text) is not None) for i, b, text in zip(ids, bits, raw_labels)],
         lambda k: "node id and label must be integers"),
        (list(map(is_not, bits, repeat(None))), lambda k: f"label must be 0 or 1, got {raw_labels[k]!r}"),
        ([i is not None and 0 <= i < num_nodes for i in ids], lambda k: f"node id {ids[k]} out of range"),
        (list(map(splits.__contains__, names)), lambda k: f"unknown split {names[k]!r}"),
        (_firsts(ids), lambda k: f"duplicate node id {ids[k]}"),
    ], error)
    labels = np.zeros(num_nodes, dtype=np.int64)
    labels[ids] = bits
    return labels, SplitAssignment(dict(zip(ids, map(splits.__getitem__, names))), seed)
