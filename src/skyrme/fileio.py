"""Binary field formats.

SKYF (group fields): 8-byte magic ``SKYF0001``; little-endian u32 group
id, rep_dim N, N1, N2, N3; three binary64 periods; then site-major data
(x^3 fastest) of row-major N x N matrices as (re, im) binary64 pairs.
SKYA (algebra-valued 1-forms): magic ``SKYA0001``, same header, then the
three component blocks in axis order, each laid out like a field block.
An SKYA file holds a lattice connection, the link coefficients b_i(x) of
an `AlgebraOneForm`: the link x -> x + e_i carries exp(h_i b_i(x)).

C-ordered complex128 is exactly the (re, im) pair layout, so blocks are
written and read with tobytes/frombuffer plus an explicit little-endian
dtype.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .algebra import ATOMIC_SPECS, LieAlgebra, parse_algebra
from .errors import FileFormatError, LogRangeError
from .lattice import AlgebraOneForm, GroupField, TorusLattice

__all__ = ["write_field", "read_field", "write_one_form", "read_one_form",
           "GROUP_IDS", "group_id", "group_from_id"]

_MAGIC_FIELD = b"SKYF0001"
_MAGIC_FORM = b"SKYA0001"
_HEADER = struct.Struct("<IIIIIddd")
_CPLX = np.dtype("<c16")

# the family codes of the format; a group's id is its family code plus its size
_FAMILY_IDS = {"su": 0x0100, "spin": 0x0200, "sp": 0x0300, "g2": 0x0400, "f4": 0x0500,
               "u1": 0x0600, "so3": 0x0700}
GROUP_IDS = {spec: _FAMILY_IDS[family] + (n or 0) for spec, (family, n) in ATOMIC_SPECS.items()}
_ID_TO_NAME = {v: k for k, v in GROUP_IDS.items()}


def group_id(alg: LieAlgebra) -> int:
    if alg.name not in GROUP_IDS:
        raise FileFormatError(f"group {alg.name!r} has no file id (atomic groups only)")
    return GROUP_IDS[alg.name]


def group_from_id(gid: int) -> LieAlgebra:
    if gid not in _ID_TO_NAME:
        raise FileFormatError(f"unknown group id 0x{gid:04x}")
    return parse_algebra(_ID_TO_NAME[gid])


def _header(magic: bytes, alg: LieAlgebra, lattice: TorusLattice) -> bytes:
    """The file header, built before the file opens: a group with no id leaves no file."""
    return magic + _HEADER.pack(group_id(alg), alg.rep_dim, *lattice.dims, *lattice.lengths)


def _read_header(fh, magic: bytes):
    got = fh.read(8)
    if got != magic:
        raise FileFormatError(f"bad magic {got!r}, expected {magic!r}")
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise FileFormatError("truncated header")
    gid, rep, n1, n2, n3, l1, l2, l3 = _HEADER.unpack(raw)
    alg = group_from_id(gid)
    if alg.rep_dim != rep:
        raise FileFormatError(f"rep_dim {rep} does not match group {alg.name}")
    try:
        return alg, TorusLattice((n1, n2, n3), (l1, l2, l3))
    except ValueError as exc:
        raise FileFormatError(f"header dims {(n1, n2, n3)}, lengths {(l1, l2, l3)}: "
                              f"{exc}") from exc


def _read_block(fh, lattice: TorusLattice, rep: int) -> np.ndarray:
    size = lattice.dims[0] * lattice.dims[1] * lattice.dims[2] * rep * rep * _CPLX.itemsize
    # a file's size is checked before the read asks for that much memory, a
    # pipe's only after it
    if fh.seekable() and size > os.fstat(fh.fileno()).st_size - fh.tell():
        raw = b""
    else:
        raw = fh.read(size)
    if len(raw) != size:
        raise FileFormatError(f"truncated data block: the header asks {size} bytes")
    arr = np.frombuffer(raw, dtype=_CPLX).astype(complex)
    return arr.reshape(lattice.dims + (rep, rep))


def _check_finite(block: np.ndarray, what: str) -> None:
    """Reject a NaN or Inf entry of a (dims, N, N) block, naming its site;
    the site is searched for only once the whole block has failed."""
    if not np.isfinite(block).all():
        bad = np.argwhere(~np.isfinite(block).all(axis=(-2, -1)))[0]
        raise FileFormatError(f"non-finite {what} at site {tuple(int(i) for i in bad)}")


def write_field(path, u: GroupField) -> None:
    header = _header(_MAGIC_FIELD, u.algebra, u.lattice)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.values, dtype=_CPLX).tobytes())


def read_field(path) -> GroupField:
    with open(path, "rb") as fh:
        alg, lattice = _read_header(fh, _MAGIC_FIELD)
        values = _read_block(fh, lattice, alg.rep_dim)
        if fh.read(1):
            raise FileFormatError("trailing bytes after field data")
    _check_finite(values, "matrix entry")
    u = GroupField(lattice, alg, values)
    try:
        u.validate()
    except LogRangeError as exc:
        raise FileFormatError(f"matrix off the group {alg.name} at site "
                              f"{tuple(int(i) for i in exc.site)} "
                              f"(deviation {exc.value:.2e})") from exc
    return u


def write_one_form(path, a: AlgebraOneForm) -> None:
    """Write the link coefficients of a as SKYA."""
    header = _header(_MAGIC_FORM, a.algebra, a.lattice)
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(3):
            M = a.algebra.to_matrix(a.coeffs[i])
            fh.write(np.ascontiguousarray(M, dtype=_CPLX).tobytes())


def read_one_form(path, sampling: str = "link") -> AlgebraOneForm:
    """Read an SKYA file.  Files this package writes hold link values, the
    default `sampling`; "site" reads the data as site values and builds
    their links, as `AlgebraOneForm` does."""
    with open(path, "rb") as fh:
        alg, lattice = _read_header(fh, _MAGIC_FORM)
        comps = []
        for i in range(3):
            M = _read_block(fh, lattice, alg.rep_dim)
            _check_finite(M, f"entry in component {i + 1}")
            comps.append(alg.to_coords(M, error=lambda res: FileFormatError(
                f"component outside algebra span (residual {res:.2e})"))[0])
        if fh.read(1):
            raise FileFormatError("trailing bytes after form data")
    return AlgebraOneForm(lattice, alg, np.stack(comps), sampling)
