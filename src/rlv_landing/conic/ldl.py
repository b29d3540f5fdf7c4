"""The compiled kernels of the IPM: the sparse LDL' factorization
``ldl.c`` and the cone algebra ``cones.c``, built into one library with the
system C compiler on first use and loaded with ctypes.

The two sources are compiled together, once per sources and command, with
the compiler Python was built with (``sysconfig``'s ``CC``) and constant
flags: no fast math and no host-specific instructions, so that a result's
bits do not depend on the host CPU. The library is cached next to the
sources, in ``__pycache__/conic-<hash>.so``, as CPython caches bytecode; the
hash covers both sources and the command (``_cache_path``), and a new
build there deletes the libraries of other sources or commands. Where that
directory cannot be written, it is built in a private temporary directory
for the process. A failed compile raises ``ImportError``.

``analyze`` is the symbolic pass over an upper-triangular CSC pattern: the
elimination tree (``etree``), then the pattern of each row of L, once per
pattern. ``Factors`` is the numeric factorization for it, which walks no
tree, the solves, and the product with the symmetric matrix (``ldl_symv``),
which adds as scipy's product with the whole matrix does. ``csc_pattern``
forms a sparse pattern by a counting sort (the IPM's KKT upper triangle and
the planner's constraint matrices). ``cones`` calls ``cone_points``.

The IPM's entry points take one IPM solve's context, ``IpmContext``
(``struct ipm_context`` in ``ldl.c``), which ``ipm._Session`` fills once
with the solve's sizes, its constants and the address of every array its
calls read or write, and otherwise only the vectors and scalars that change
per call: ``kkt_solve`` (a tolerance, the right-hand side and the
solution), ``kkt_direction`` (the residuals, v and the direction),
``ipm_factor``, ``ipm_residuals``, ``ipm_predictor``, ``ipm_corrector``
(sigma and mu) and ``ipm_advance`` (the step pair); ``ipm_context_size`` is
the struct's size in C. The package calls ``kkt_direction`` and the cone
algebra's other entry points (``cone_nt_scaling``, ``cone_max_steps``,
``cone_product``, ``cone_scaled_product``, ``cone_clip_eigenvalues``,
``cone_w2_scatter``) only from C; the tests call them through wrappers, to
hold each to the numpy code it replaced. Every array is checked for dtype,
C-contiguity and shape (``_checked``) before it reaches C. The entry points
are ``_ENTRY_POINTS``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCES = tuple(Path(__file__).with_name(c) for c in ("ldl.c", "cones.c"))
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_INT, _PTR, _DOUBLE = ctypes.c_int, ctypes.c_void_p, ctypes.c_double
_VIEW = ctypes.c_char * 0


def _fields(kind, names: str) -> list:
    return [(name, kind) for name in names.split()]


class IpmContext(ctypes.Structure):
    """``struct ipm_context`` of ``ldl.c``, field for field: one IPM
    solve's sizes and constants, and the address of every array its
    iterations read or write (``ipm._Session`` fills it)."""

    _fields_ = (
        _fields(_INT, "n nx me n_nn n_soc d steps")
        + _fields(_DOUBLE, "tol reg") + _fields(_INT, "common rounds")
        + _fields(_DOUBLE, "damping enough stretch lift lo hi mu_floor gain")
        + _fields(_PTR, "Kp Ki Kx reg_sign Lp Rp Ri Li Lx D iwork order "
                        "w2_slots work Pp Pi Ap Ai Gp Gi Pv Av Gv c b h Px "
                        "r_dual r_eq r_ineq norms rwork u norm_sq norm bar "
                        "worst w_nn W lam sol_a ds_a trial_s trial_z sol ds "
                        "alpha cwork x y z s"))


_CONTEXT = ctypes.POINTER(IpmContext)
# Every entry point of the library: its argument and result types.
_ENTRY_POINTS = {
    "ldl_etree": ([_INT] + [_PTR] * 5, _INT),
    "ldl_symbolic": ([_INT] + [_PTR] * 6, None),
    "ldl_factor": ([_INT] + [_PTR] * 12, _INT),
    "ldl_solve": ([_INT] + [_PTR] * 5, None),
    "ldl_symv": ([_INT] + [_PTR] * 5, None),
    "kkt_solve": ([_CONTEXT, _DOUBLE] + [_PTR] * 2, _INT),
    "kkt_direction": ([_CONTEXT] + [_PTR] * 6, _INT),
    "ipm_context_size": ([], _INT),
    "ipm_factor": ([_CONTEXT], _INT),
    "ipm_residuals": ([_CONTEXT], None),
    "ipm_predictor": ([_CONTEXT], _INT),
    "ipm_corrector": ([_CONTEXT] + [_DOUBLE] * 2, _INT),
    "ipm_advance": ([_CONTEXT] + [_DOUBLE] * 2, None),
    "csc_pattern": ([_INT] * 2 + [_PTR] * 6, _INT),
    "cone_points": ([_INT] * 4 + [_PTR] * 5, None),
    "cone_max_steps": ([_INT] * 4 + [_PTR] * 5, None),
    "cone_nt_scaling": ([_INT] * 3 + [_PTR] * 8, None),
    "cone_product": ([_INT] * 3 + [_PTR] * 3, None),
    "cone_scaled_product": ([_INT] * 3 + [_PTR] * 6, None),
    "cone_clip_eigenvalues": ([_INT] * 3 + [_DOUBLE] * 2 + [_PTR] * 2, None),
    "cone_w2_scatter": ([_INT] * 3 + [_DOUBLE] + [_PTR] * 4, None),
}


def _compile(command: list[str], target: Path) -> None:
    """Compile the sources to ``target``, through a temporary name in its
    directory, so that processes compiling at once each move a whole
    library into place."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so")
    os.close(fd)
    try:
        try:
            done = subprocess.run([*command, "-o", tmp, *map(str, SOURCES)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"cannot run {shlex.join(command)}: {exc}") \
                from exc
        if done.returncode != 0:
            names = " and ".join(source.name for source in SOURCES)
            raise ImportError(f"compiling {names} failed: "
                              f"{shlex.join(command)}\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cache_path(command: list[str]) -> Path:
    """Where the library that ``command`` compiles from the sources is
    cached: its name hashes the command and each source's hash."""
    digest = hashlib.sha256(shlex.join(command).encode())
    for source in SOURCES:
        digest.update(hashlib.sha256(source.read_bytes()).digest())
    return SOURCES[0].parent / "__pycache__" / \
        f"conic-{digest.hexdigest()[:16]}.so"


@functools.cache
def _library() -> ctypes.CDLL:
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise ImportError("no C compiler: sysconfig has no CC")
    command = [*shlex.split(cc), *FLAGS]
    path = _cache_path(command)
    private = None
    try:
        path.parent.mkdir(exist_ok=True)
        if not path.is_file():
            _compile(command, path)
            # The libraries of other sources or commands: conic-<hash>.so,
            # and ldl-<hash>.so, the name before cones.c joined. A compile
            # under way writes a mkstemp name, which neither pattern matches.
            for name in ("conic", "ldl"):
                for old in path.parent.glob(f"{name}-{'[0-9a-f]' * 16}.so"):
                    if old != path:
                        old.unlink(missing_ok=True)
    except OSError:
        # __pycache__ cannot be written: build for this process alone.
        private = Path(tempfile.mkdtemp())
        path = private / path.name
        _compile(command, path)
    try:
        lib = ctypes.CDLL(str(path))
    finally:
        if private is not None:
            shutil.rmtree(private)   # the loaded library stays mapped
    for name, (argtypes, restype) in _ENTRY_POINTS.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _address(a: np.ndarray) -> int:
    """The address of the array ``a``, as C takes it and as a struct's
    pointer field holds it: read through a zero-length ctypes view of a
    writeable ``a``, which costs a quarter of ``a.ctypes.data``. It keeps
    nothing alive: the caller holds ``a`` while C may use it."""
    return ctypes.addressof(_VIEW.from_buffer(a)) if a.flags.writeable \
        else a.ctypes.data


def _checked(name: str, a, dtype, *shape: int):
    """The address of ``a`` (``_address``), after checking that C may use
    it as a C-contiguous array of ``dtype`` and this shape."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.shape == shape and a.flags.c_contiguous):
        raise ValueError(
            f"{name}: need a C-contiguous {np.dtype(dtype)} array of shape "
            f"{shape}, got {getattr(a, 'dtype', type(a).__name__)} of shape "
            f"{getattr(a, 'shape', None)}")
    return _address(a)


def csr_args(name: str, M) -> tuple:
    """The addresses of the CSR matrix M's ``indptr``, ``indices`` and
    ``data`` (``_address``), after checking that C may read it as a CSR
    matrix of its shape: int32 index arrays and float64 values, each
    C-contiguous and of the length its row pointers give, the row pointers
    from 0 and nondecreasing, and every column index in range."""
    rows, cols = M.shape
    indptr, indices = M.indptr, M.indices
    args = [_checked(f"{name}.indptr", indptr, np.intc, rows + 1)]
    nnz = int(indptr[-1])
    args += [_checked(f"{name}.indices", indices, np.intc, nnz),
             _checked(f"{name}.data", M.data, np.float64, nnz)]
    if indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any() \
            or (nnz and not 0 <= indices.min() <= indices.max() < cols):
        raise ValueError(f"{name} is not a CSR matrix of shape {M.shape}")
    return tuple(args)


def etree(indptr: np.ndarray, indices: np.ndarray):
    """The elimination tree of a symmetric matrix given by its upper
    triangle in CSC form (int32 ``indptr`` and ``indices``): ``parent``
    (-1 at a root) and the column pointers ``Lp`` of L, both int32. Raises
    ``ValueError`` at an entry below the diagonal."""
    n = indptr.size - 1
    args = (_checked("indptr", indptr, np.intc, n + 1),
            _checked("indices", indices, np.intc, indices.size))
    if n < 0 or indptr[0] != 0 or indptr[-1] != indices.size \
            or (indptr[1:] < indptr[:-1]).any() \
            or (indices.size and not 0 <= indices.min() <= indices.max() < n):
        raise ValueError("not a CSC pattern of an n x n matrix")
    work, counts, parent = np.empty((3, n), np.intc)
    out = map(_address, (work, counts, parent))
    if _library().ldl_etree(n, *args, *out) < 0:
        raise ValueError("the pattern has an entry below the diagonal")
    Lp = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=Lp[1:])
    if Lp[-1] > np.iinfo(np.intc).max:
        raise ValueError("L has more entries than an int32 indexes")
    return parent, Lp.astype(np.intc)


def analyze(indptr: np.ndarray, indices: np.ndarray):
    """The symbolic pass over a pattern that ``etree`` accepts, once for
    every numeric factorization of a matrix with this pattern, all int32:
    L's column pointers ``Lp``, and the pattern of each row k of L in the
    order the numeric pass visits it, its columns ``Ri[Rp[k]:Rp[k + 1]]``."""
    parent, Lp = etree(indptr, indices)
    n = parent.size
    Rp, Ri = np.empty(n + 1, np.intc), np.empty(Lp[-1], np.intc)
    work = np.empty(2 * n, np.intc)
    _library().ldl_symbolic(n, *map(_address, (indptr, indices, parent, Rp,
                                               Ri, work)))
    return Lp, Rp, Ri


def csc_pattern(rows: np.ndarray, cols: np.ndarray, n: int):
    """The CSC pattern of the n x n matrix whose entry e sits at row
    ``rows[e]`` and column ``cols[e]``, by a counting sort, all int32:
    ``indptr`` and ``indices``, rows ascending in each column and a
    repeated entry stored once, and the stored entry of each e
    (``slots``). Raises ``ValueError`` at a row or column out of range."""
    n, m = int(n), rows.size
    args = (_checked("rows", rows, np.intc, m),
            _checked("cols", cols, np.intc, m))
    if any(a.size and not 0 <= a.min() <= a.max() < n for a in (rows, cols)):
        raise ValueError("an entry is out of range")
    indptr, indices, slots = (np.empty(size, np.intc)
                              for size in (n + 1, m, m))
    work = np.empty(n + m, np.intc)
    stored = _library().csc_pattern(
        n, m, *args, *map(_address, (indptr, indices, slots, work)))
    return indptr, indices[:stored].copy(), slots


class Factors:
    """The LDL' factors of one symmetric matrix pattern: the upper
    triangle's ``indptr`` and ``indices``, rows ascending in each column,
    and the ``analyze`` of that pattern, which says where the kernel writes
    L; the factors read its row patterns, and hold no copy. ``factor``
    refactors in place, ``solve`` solves with the last factorization, and
    ``product`` multiplies by the matrix."""

    def __init__(self, indptr, indices, Lp, Rp, Ri):
        n = self.n = Lp.size - 1
        ap = _checked("indptr", indptr, np.intc, n + 1)
        self.nnz = int(indptr[-1])
        ai = _checked("indices", indices, np.intc, self.nnz)
        lp = _checked("Lp", Lp, np.intc, n + 1)
        size = int(Lp[-1])
        rp = _checked("Rp", Rp, np.intc, n + 1)
        ri = _checked("Ri", Ri, np.intc, size)
        # L's rows and values, D, and the workspaces, all held so that their
        # addresses stay valid.
        self.L = np.empty(size, np.intc), np.empty(size), np.empty(n)
        work = np.empty(n, np.intc), np.empty(n)
        self._held = indptr, indices, Lp, Rp, Ri, self.L, work
        li, lx, d = map(_address, self.L)
        iwork, dwork = map(_address, work)
        self._factor_args = (ap, ai), (lp, rp, ri, li, lx, d, iwork, dwork)
        self._solve_args = lp, li, lx, d
        self._factored = False   # whether the last factor succeeded

    def factor(self, values: np.ndarray, reg: np.ndarray) -> int:
        """Factor the matrix with these upper-triangle values; a pivot that
        is exactly zero takes its row's static regularization ``reg``
        instead. Returns the number of positive pivots, or -1 at a NaN
        pivot (or a zero one whose ``reg`` is zero), after which the
        factors are not usable."""
        pattern, rest = self._factor_args
        ax = _checked("values", values, np.float64, self.nnz)
        r = _checked("reg", reg, np.float64, self.n)
        positive = _library().ldl_factor(self.n, *pattern, ax, r, *rest)
        self._factored = positive >= 0
        return positive

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of L D L' x = rhs, in a new array; ``RuntimeError``
        unless the last ``factor`` succeeded, as L is not all written."""
        x = np.array(rhs, dtype=np.float64)
        address = _checked("rhs", x, np.float64, self.n)
        if not self._factored:
            raise RuntimeError("no successful factorization to solve with")
        _library().ldl_solve(self.n, *self._solve_args, address)
        return x

    def product(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A x, in a new array, for the symmetric A of these upper-triangle
        values, added as scipy's CSC product with the whole A adds it."""
        args = (_checked("values", values, np.float64, self.nnz),
                _checked("x", x, np.float64, self.n))
        y = np.empty(self.n)
        _library().ldl_symv(self.n, *self._factor_args[0], *args, _address(y))
        return y
