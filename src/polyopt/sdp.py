"""Block-diagonal SDP data model with free scalar variables, plus a text format.

The canonical problem shape used throughout the toolkit is the maximization

    maximize    c_free . u  +  sum_j <C_j, X_j>
    subject to  sum_j <A_{j,m}, X_j>  +  (B u)_m  =  rhs_m     (m = 0..nrows-1)
                X_j  PSD,   u free,

whose dual is:  minimize rhs . v  subject to  sum_m v_m A_{j,m} - C_j PSD for
every block j and  B^T v = c_free.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError

SYMMETRY_TOL = 1e-12


@dataclass
class SdpProblem:
    block_sizes: list
    a_blocks: list            # per block: (nrows, s, s) symmetric coefficient matrices
    b_free: np.ndarray        # (nrows, nfree)
    rhs: np.ndarray           # (nrows,)
    c_free: np.ndarray        # (nfree,)
    c_blocks: list | None = None   # per block: (s, s); zeros when omitted
    name: str = ""
    layout: object = None     # builder metadata (row monomials, variable map); not serialized

    def __post_init__(self):
        self.block_sizes = [int(s) for s in self.block_sizes]
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        self.c_free = np.asarray(self.c_free, dtype=float).reshape(-1)
        self.b_free = np.asarray(self.b_free, dtype=float).reshape(len(self.rhs), -1)
        self.a_blocks = [np.asarray(a, dtype=float) for a in self.a_blocks]
        if self.c_blocks is None:
            self.c_blocks = [np.zeros((s, s)) for s in self.block_sizes]
        else:
            self.c_blocks = [np.asarray(c, dtype=float) for c in self.c_blocks]

    @property
    def nblocks(self) -> int:
        return len(self.block_sizes)

    @property
    def nrows(self) -> int:
        return len(self.rhs)

    @property
    def nfree(self) -> int:
        return self.b_free.shape[1]

    def validate(self):
        """Raise ValueError on inconsistent dimensions or asymmetric coefficients."""
        if self.nrows < 1:
            raise ValueError("problem needs at least one equality row")
        if len(self.a_blocks) != self.nblocks or len(self.c_blocks) != self.nblocks:
            raise ValueError("per-block arrays disagree with block_sizes")
        if self.nfree != len(self.c_free):
            raise ValueError(
                f"b_free has {self.nfree} columns but c_free has {len(self.c_free)}")
        for j, s in enumerate(self.block_sizes):
            if s < 1:
                raise ValueError(f"block {j} has nonpositive size {s}")
            a = self.a_blocks[j]
            if a.shape != (self.nrows, s, s):
                raise ValueError(
                    f"a_blocks[{j}] has shape {a.shape}, expected {(self.nrows, s, s)}")
            asym = np.abs(a - a.transpose(0, 2, 1)).max(initial=0.0)
            scale = np.abs(a).max(initial=0.0)
            if asym > SYMMETRY_TOL * (1.0 + scale):
                raise ValueError(f"a_blocks[{j}] contains asymmetric coefficient matrices")
            c = self.c_blocks[j]
            if c.shape != (s, s):
                raise ValueError(f"c_blocks[{j}] has shape {c.shape}, expected {(s, s)}")
            if np.abs(c - c.T).max(initial=0.0) > SYMMETRY_TOL * (1.0 + np.abs(c).max(initial=0.0)):
                raise ValueError(f"c_blocks[{j}] is not symmetric")
        return self

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        lines = ["SDPPROBLEM v1"]
        if self.name:
            lines.append(f"name {self.name}")
        lines.append(f"blocks {self.nblocks}")
        lines.append("sizes " + " ".join(str(s) for s in self.block_sizes))
        lines.append(f"free {self.nfree}")
        lines.append(f"rows {self.nrows}")
        for i, v in enumerate(self.c_free):
            if v != 0.0:
                lines.append(f"objf {i} {float(v)!r}")
        for j, c in enumerate(self.c_blocks):
            s = self.block_sizes[j]
            for p in range(s):
                for q in range(p, s):
                    if c[p, q] != 0.0:
                        lines.append(f"objb {j} {p} {q} {float(c[p, q])!r}")
        for m, v in enumerate(self.rhs):
            if v != 0.0:
                lines.append(f"rhs {m} {float(v)!r}")
        for j, a in enumerate(self.a_blocks):
            s = self.block_sizes[j]
            for m in range(self.nrows):
                mat = a[m]
                for p in range(s):
                    for q in range(p, s):
                        if mat[p, q] != 0.0:
                            lines.append(f"A {m} {j} {p} {q} {float(mat[p, q])!r}")
        for m in range(self.nrows):
            for i, v in enumerate(self.b_free[m]):
                if v != 0.0:
                    lines.append(f"B {m} {i} {float(v)!r}")
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
        if body_start is None:
            body_start = len(lines)
        for key in ("blocks", "free", "rows"):
            if key not in header:
                raise ParseError(f"missing '{key}' header line")
        if len(sizes) != header["blocks"]:
            raise ParseError("sizes line disagrees with block count")
        nrows, nfree = header["rows"], header["free"]
        a_blocks = [np.zeros((nrows, s, s)) for s in sizes]
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
                    c_free[int(tok[1])] = float(tok[2])
                elif kind == "objb":
                    j, p, q = int(tok[1]), int(tok[2]), int(tok[3])
                    c_blocks[j][p, q] = c_blocks[j][q, p] = float(tok[4])
                elif kind == "rhs":
                    rhs[int(tok[1])] = float(tok[2])
                elif kind == "A":
                    m, j, p, q = (int(t) for t in tok[1:5])
                    a_blocks[j][m, p, q] = a_blocks[j][m, q, p] = float(tok[5])
                elif kind == "B":
                    b_free[int(tok[1]), int(tok[2])] = float(tok[3])
                else:
                    raise ParseError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed record line: {ln!r}") from exc
        return SdpProblem(
            block_sizes=sizes, a_blocks=a_blocks, b_free=b_free, rhs=rhs,
            c_free=c_free, c_blocks=c_blocks, name=name)


def write_problem(prob: SdpProblem, path) -> None:
    with open(path, "w") as fh:
        fh.write(prob.to_text())


def read_problem(path) -> SdpProblem:
    with open(path) as fh:
        return SdpProblem.from_text(fh.read())
