"""Block-diagonal SDP data model with free scalar variables, plus a text format.

The canonical problem shape used throughout the toolkit is the maximization

    maximize    c_free . u  +  sum_j <C_j, X_j>
    subject to  sum_j <A_{j,m}, X_j>  +  (B u)_m  =  rhs_m     (m = 0..nrows-1)
                X_j  PSD,   u free,

whose dual is:  minimize rhs . v  subject to  sum_m v_m A_{j,m} - C_j PSD for
every block j and  B^T v = c_free.  ``SdpProblem.dual()`` writes that dual in
the same maximization form, with v free and the slack of block j as X_j:
maximize -rhs . v subject to the nfree rows B^T v = c_free, then one row per
block entry p <= q.  The moment relaxation is built this way from the SOS one.
The result keeps the problem it was made from in ``dual_of``, which
``solver.solve`` uses to answer it from one run on that, usually smaller,
problem.  ``dual()`` is the only code that sets that link: the constructor
and ``dataclasses.replace`` cannot pass it, so a replaced copy has none.

``SdpProblem`` and ``CoeffBlock`` are frozen values, checked once, when they
are made: dimensions that disagree, an asymmetric C block or a triplet
outside its matrices raise ValueError there, and nothing checks them again.
Every array they hold is their own read-only copy, so a problem cannot
change after it is made, and neither can the problem in its ``dual_of``.
``copy``, ``deepcopy`` and ``pickle`` rebuild a problem through the same
constructor, or through ``dual()`` when it is linked.

The coefficient matrices of a relaxation are symmetric and well under 2%
nonzero, so each block's A_{j,0..nrows-1} is stored as a ``CoeffBlock``:
triplets (row m, flat index p*s + q, value) of the upper triangles p <= q,
sorted by (m, p, q), in O(nnz) memory.  ``SdpProblem`` also accepts a
symmetric dense (nrows, s, s) cube per block and stores it the same way;
``CoeffBlock.to_dense()`` gives a block's cube back.  B, C and the
right-hand side are held dense.

Text serialization is line oriented and sparse (0-based indices, repr floats
so the round trip is exact).  Coefficient matrices are symmetric and only the
upper triangle is stored::

    SDPPROBLEM v1
    name <label>
    blocks <nblocks>
    sizes <s1> <s2> ...
    free <nfree>
    rows <nrows>
    objf <i> <value>            # objective on free variable i
    objb <j> <p> <q> <value>    # objective on block j entry (p, q), p <= q
    rhs <m> <value>             # right-hand side of row m
    A <m> <j> <p> <q> <value>   # row m, block j, entry (p, q), p <= q
    B <m> <i> <value>           # row m, free variable i
    END

An A record (p, q) with p > q stands for (q, p); repeated records add up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CoeffBlock:
    """The symmetric coefficient matrices A_{j,0..nrows-1} of one s x s block
    as triplets of their upper triangles.

    Entry (p, q), p <= q, of A_{j,m} is held at row m, flat index p*s + q;
    entry (q, p) is the same value and is not held.  Construction sorts the
    triplets by (m, p, q), adds up repeated entries and rejects an entry
    below the diagonal or outside the matrices.
    """

    nrows: int
    size: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        nrows, size = int(self.nrows), int(self.size)
        # read-only before reshaping, so that no view's base is writeable
        rows = _read_only(np.array(self.rows, dtype=np.int64)).reshape(-1)
        cols = _read_only(np.array(self.cols, dtype=np.int64)).reshape(-1)
        vals = _read_only(np.array(self.vals, dtype=float)).reshape(-1)
        if not len(rows) == len(cols) == len(vals):
            raise ValueError("coefficient triplets have unequal lengths")
        if nrows < 0 or size < 1:
            raise ValueError(f"coefficient block of {nrows} rows and size {size}")
        ss = size * size
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError(f"coefficient triplet row outside 0..{nrows - 1}")
        if len(cols) and (cols.min() < 0 or cols.max() >= ss):
            raise ValueError(f"coefficient triplet column outside 0..{ss - 1}")
        key = rows * ss + cols
        if len(key) > 1 and not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, vals = key[order], vals[order]
            repeated = key[1:] == key[:-1]
            if repeated.any():
                first = np.flatnonzero(np.concatenate(([True], ~repeated)))
                key, vals = key[first], np.add.reduceat(vals, first)
            rows, cols = np.divmod(key, ss)
        if len(cols) and (cols // size > cols % size).any():
            raise ValueError("coefficient triplet below the diagonal: only p <= q is held")
        for name, value in zip(("nrows", "size", "rows", "cols", "vals"),
                               (nrows, size, _read_only(rows), _read_only(cols),
                                _read_only(vals))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return CoeffBlock, (self.nrows, self.size, self.rows, self.cols, self.vals)

    @staticmethod
    def from_dense(a) -> "CoeffBlock":
        """The upper-triangle triplets of a symmetric dense (nrows, s, s) cube."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValueError(f"coefficient cube has shape {a.shape}, expected (nrows, s, s)")
        scale = np.abs(a).max(initial=0.0)
        if np.abs(a - a.transpose(0, 2, 1)).max(initial=0.0) > SYMMETRY_TOL * (1.0 + scale):
            raise ValueError("coefficient cube contains asymmetric coefficient matrices")
        flat = np.triu(a).reshape(a.shape[0], -1)
        rows, cols = np.nonzero(flat)
        return CoeffBlock(a.shape[0], a.shape[1], rows, cols, flat[rows, cols])

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes

    def both_triangles(self):
        """(rows, cols, vals) of both triangles, sorted by (m, p, q): the
        nonzeros of the (nrows, s*s) matrix whose row m is A_m flattened."""
        p, q = np.divmod(self.cols, self.size)
        off = p != q
        rows = np.concatenate([self.rows, self.rows[off]])
        cols = np.concatenate([self.cols, q[off] * self.size + p[off]])
        vals = np.concatenate([self.vals, self.vals[off]])
        order = np.argsort(rows * (self.size * self.size) + cols)
        return rows[order], cols[order], vals[order]

    def to_dense(self) -> np.ndarray:
        """The (nrows, s, s) cube."""
        rows, cols, vals = self.both_triangles()
        a = np.zeros((self.nrows, self.size * self.size))
        a[rows, cols] = vals
        return a.reshape(self.nrows, self.size, self.size)


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """One problem in the form of the module docstring, checked when it is
    made (ValueError on dimensions that disagree or an asymmetric C block)
    and read-only after: its arrays are its own copies, not writeable."""

    block_sizes: tuple
    a_blocks: tuple           # per block: a CoeffBlock (a dense (nrows, s, s) cube is converted)
    b_free: np.ndarray        # (nrows, nfree)
    rhs: np.ndarray           # (nrows,)
    c_free: np.ndarray        # (nfree,)
    c_blocks: tuple | None = None  # per block: (s, s); zeros when omitted
    name: str = ""
    layout: object = None     # builder metadata (row monomials, variable map); not serialized
    # the problem this is ``dual()`` of, set by ``dual()`` alone; not serialized
    dual_of: SdpProblem | None = field(default=None, init=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        rhs = _read_only(np.array(self.rhs, dtype=float)).reshape(-1)
        if len(rhs) < 1:
            raise ValueError("problem needs at least one equality row")
        b_free = _read_only(np.array(self.b_free, dtype=float)).reshape(len(rhs), -1)
        c_free = _read_only(np.array(self.c_free, dtype=float)).reshape(-1)
        if b_free.shape[1] != len(c_free):
            raise ValueError(
                f"b_free has {b_free.shape[1]} columns but c_free has {len(c_free)}")
        a_blocks = tuple(a if isinstance(a, CoeffBlock) else CoeffBlock.from_dense(a)
                         for a in self.a_blocks)
        if self.c_blocks is None:
            c_blocks = tuple(_read_only(np.zeros((s, s))) for s in sizes)
        else:
            c_blocks = tuple(_read_only(np.array(c, dtype=float)) for c in self.c_blocks)
        if len(a_blocks) != len(sizes) or len(c_blocks) != len(sizes):
            raise ValueError("per-block arrays disagree with block_sizes")
        for j, (s, a, c) in enumerate(zip(sizes, a_blocks, c_blocks)):
            if (a.nrows, a.size) != (len(rhs), s):
                raise ValueError(f"a_blocks[{j}] has shape {(a.nrows, a.size, a.size)}, "
                                 f"expected {(len(rhs), s, s)}")
            if c.shape != (s, s):
                raise ValueError(f"c_blocks[{j}] has shape {c.shape}, expected {(s, s)}")
            if np.abs(c - c.T).max(initial=0.0) > SYMMETRY_TOL * (1.0 + np.abs(c).max(initial=0.0)):
                raise ValueError(f"c_blocks[{j}] is not symmetric")
        for name, value in zip(("block_sizes", "a_blocks", "b_free", "rhs", "c_free", "c_blocks"),
                               (sizes, a_blocks, b_free, rhs, c_free, c_blocks)):
            object.__setattr__(self, name, value)

    @property
    def nblocks(self) -> int:
        return len(self.block_sizes)

    @property
    def nrows(self) -> int:
        return len(self.rhs)

    @property
    def nfree(self) -> int:
        return self.b_free.shape[1]

    def __reduce__(self):
        if self.dual_of is not None:
            return SdpProblem.dual, (self.dual_of, self.name, self.layout)
        return SdpProblem, (self.block_sizes, self.a_blocks, self.b_free, self.rhs,
                            self.c_free, self.c_blocks, self.name, self.layout)

    def dual(self, name: str = "", layout=None) -> "SdpProblem":
        """The dual in this maximization form (module docstring): v free, the rows
        B^T v = c_free, then per block j and p <= q in ``np.triu_indices``
        order Z_j[p,q] - A_j*(v)[p,q] = -C_j[p,q] with the slack Z_j as block j.

        The result carries ``name`` and ``layout``, and its ``dual_of`` is this
        problem, which ``solver.solve`` answers it from.  Neither problem can
        be edited, so the link cannot go stale; ``dataclasses.replace(result)``
        is a copy without it, which ``solve`` runs itself."""
        nrows = self.nfree + sum(s * (s + 1) // 2 for s in self.block_sizes)
        a_blocks, b_rows, rhs, first = [], [self.b_free.T], [self.c_free], self.nfree
        for a, c, s in zip(self.a_blocks, self.c_blocks, self.block_sizes):
            p, q = np.triu_indices(s)
            # Z[p,q] = <E_pq, Z>: E_pq is 1 at (p,p), else 1/2 at (p,q) and (q,p)
            a_blocks.append(CoeffBlock(nrows, s, np.arange(first, first + len(p)), p * s + q,
                                       np.where(p == q, 1.0, 0.5)))
            # -A_j*(v)[p,q]; (p, q) is the block's row p (2s - p - 1)/2 + q
            # in triu_indices order
            ap, aq = np.divmod(a.cols, s)
            block_b = np.zeros((len(p), self.nrows))
            block_b[ap * (2 * s - ap - 1) // 2 + aq, a.rows] = -a.vals
            b_rows.append(block_b)
            rhs.append(0.0 - c[p, q])   # 0.0 - x: a zero stays +0.0
            first += len(p)
        result = SdpProblem(block_sizes=self.block_sizes, a_blocks=a_blocks,
                            b_free=np.concatenate(b_rows), rhs=np.concatenate(rhs),
                            c_free=0.0 - self.rhs, name=name, layout=layout)
        object.__setattr__(result, "dual_of", self)
        return result

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        lines = ["SDPPROBLEM v1"]
        if self.name:
            lines.append(f"name {self.name}")
        lines.append(f"blocks {self.nblocks}")
        lines.append("sizes " + " ".join(str(s) for s in self.block_sizes))
        lines.append(f"free {self.nfree}")
        lines.append(f"rows {self.nrows}")
        lines += [f"objf {i} {v!r}" for i, v in _nonzeros(self.c_free)]
        for j, c in enumerate(self.c_blocks):
            lines += [f"objb {j} {p} {q} {v!r}" for p, q, v in _nonzeros(np.triu(c))]
        lines += [f"rhs {m} {v!r}" for m, v in _nonzeros(self.rhs)]
        for j, a in enumerate(self.a_blocks):
            # triplets sorted by (m, p, q) are in record order
            p, q = np.divmod(a.cols, a.size)
            keep = a.vals != 0.0
            lines += [f"A {m} {j} {pp} {qq} {v!r}" for m, pp, qq, v in zip(
                a.rows[keep].tolist(), p[keep].tolist(), q[keep].tolist(), a.vals[keep].tolist())]
        lines += [f"B {m} {i} {v!r}" for m, i, v in _nonzeros(self.b_free)]
        lines.append("END")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "SdpProblem":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or lines[0] != "SDPPROBLEM v1":
            raise ParseError("missing 'SDPPROBLEM v1' header")
        name = ""
        header = {}
        sizes = []
        body_start = None
        try:
            for idx, ln in enumerate(lines[1:], start=1):
                tok = ln.split()
                if tok[0] == "name":
                    name = ln.partition(" ")[2].strip()
                elif tok[0] in ("blocks", "free", "rows"):
                    header[tok[0]] = int(tok[1])
                elif tok[0] == "sizes":
                    sizes = [int(t) for t in tok[1:]]
                else:
                    body_start = idx
                    break
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed header line: {ln!r}") from exc
        if body_start is None:
            body_start = len(lines)
        for key in ("blocks", "free", "rows"):
            if key not in header:
                raise ParseError(f"missing '{key}' header line")
        if len(sizes) != header["blocks"]:
            raise ParseError("sizes line disagrees with block count")
        nrows, nfree = header["rows"], header["free"]
        if min([nrows, nfree, *sizes]) < 0:
            raise ParseError("negative count in the header")
        a_records = [[] for _ in sizes]   # per block: (m, p, q, value)
        c_blocks = [np.zeros((s, s)) for s in sizes]
        b_free = np.zeros((nrows, nfree))
        rhs = np.zeros(nrows)
        c_free = np.zeros(nfree)
        try:
            for ln in lines[body_start:]:
                tok = ln.split()
                kind = tok[0]
                if kind == "END":
                    break
                if kind == "objf":
                    c_free[_index(tok[1], nfree, ln)] = float(tok[2])
                elif kind == "objb":
                    j = _index(tok[1], len(sizes), ln)
                    p, q = _index(tok[2], sizes[j], ln), _index(tok[3], sizes[j], ln)
                    c_blocks[j][p, q] = c_blocks[j][q, p] = float(tok[4])
                elif kind == "rhs":
                    rhs[_index(tok[1], nrows, ln)] = float(tok[2])
                elif kind == "A":
                    # p, q < s is checked below, the rest by CoeffBlock
                    j = _index(tok[2], len(sizes), ln)
                    a_records[j].append((int(tok[1]), int(tok[3]), int(tok[4]), float(tok[5])))
                elif kind == "B":
                    b_free[_index(tok[1], nrows, ln), _index(tok[2], nfree, ln)] = float(tok[3])
                else:
                    raise ParseError(f"unknown record {kind!r}")
        except ParseError:
            raise
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed record line: {ln!r}") from exc
        triplets = []
        for j, (s, records) in enumerate(zip(sizes, a_records)):
            rec = np.array(records, dtype=float).reshape(-1, 4)
            m, p, q = rec[:, :3].astype(np.int64).T
            if len(m) and max(p.max(), q.max()) >= s:
                # lo*s + hi would alias another entry; a negative p or q makes
                # it negative, and CoeffBlock rejects that, as it does m
                raise ParseError(f"A record of block {j} indexes outside its matrices")
            lo, hi = np.minimum(p, q), np.maximum(p, q)
            triplets.append((m, lo * s + hi, rec[:, 3]))
        try:
            a_blocks = [CoeffBlock(nrows, s, *t) for s, t in zip(sizes, triplets)]
            return SdpProblem(block_sizes=sizes, a_blocks=a_blocks, b_free=b_free, rhs=rhs,
                              c_free=c_free, c_blocks=c_blocks, name=name)
        except ValueError as exc:
            raise ParseError(f"inconsistent problem: {exc}") from exc

def _index(tok: str, bound: int, line: str) -> int:
    """A record index in 0..bound-1; numpy would wrap a negative one."""
    i = int(tok)
    if not 0 <= i < bound:
        raise ParseError(f"index {i} outside 0..{bound - 1} in record line: {line!r}")
    return i


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _nonzeros(arr):
    """(index..., value) of the nonzero entries of ``arr`` in row-major order,
    as Python ints and floats."""
    idx = np.nonzero(arr)
    return zip(*(i.tolist() for i in idx), arr[idx].tolist())


def write_problem(prob: SdpProblem, path) -> None:
    with open(path, "w") as fh:
        fh.write(prob.to_text())


def read_problem(path) -> SdpProblem:
    with open(path) as fh:
        return SdpProblem.from_text(fh.read())
