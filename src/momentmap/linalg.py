"""Dense complex linear-algebra primitives shared by all solvers.

Validated constructors for complex/Hermitian/positive-definite matrices,
the spectral exponential, metric-dependent adjoints, and the directional
derivative of the Hermitian matrix exponential.

Conventions
-----------
Vectors are columns; an arrow matrix of shape (d_dst, d_src) maps the source
space into the target space.  Inner products are ``<x, y>_h = y^dagger h x``
(linear in the first slot, conjugate-linear in the second).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "as_complex_matrix",
    "as_hermitian",
    "as_positive_definite",
    "sup_norm",
    "hermitian_part",
    "hermitian_exp",
    "frechet_exp",
    "hermitian_basis",
]

#: Relative tolerance of the Hermitian-symmetry check.
DEFAULT_TOL = 1e-12

#: Off-diagonal entry of the :func:`hermitian_basis` matrices.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex128 array.

    Parameters
    ----------
    a : array_like
        Anything numpy can turn into a two-dimensional array.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        A fresh C-ordered ``complex128`` array of dimension 2.

    Raises
    ------
    ValidationError
        If the array is not 2-d or contains NaN/Inf entries.
    """
    try:
        arr = np.array(a, dtype=np.complex128, order="C")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not convertible to a complex matrix: {exc}") from exc
    if arr.ndim != 2:
        raise ValidationError(f"{name}: expected a 2-d array, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name}: non-finite entries")
    return arr


def sup_norm(a) -> float:
    """Operator (spectral) norm of a matrix; 0.0 for empty matrices.

    The largest singular value, from the same LAPACK call that
    ``np.linalg.norm(a, 2)`` makes, without its axis handling.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _max_sup_norm(mats) -> float:
    """``max((sup_norm(m) for m in mats), default=0.0)``, bitwise, from one
    stacked SVD per shape of the non-empty matrices."""
    mats = [np.asarray(m, dtype=np.complex128) for m in mats]
    norms = np.array([0.0 if m.ndim == 2 else sup_norm(m) for m in mats])
    for shape in {m.shape for m in mats if m.ndim == 2 and m.size}:
        idx = [i for i, m in enumerate(mats) if m.shape == shape]
        norms[idx] = np.linalg.svd(np.stack([mats[i] for i in idx]), compute_uv=False)[:, 0]
    return max(norms.tolist(), default=0.0)


def hermitian_part(a) -> np.ndarray:
    """Return ``(a + a^dagger)/2``."""
    return _hermitian_part(as_complex_matrix(a))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """Unchecked kernel of :func:`hermitian_part`; non-finite entries pass.
    On a stack of matrices, the stack of Hermitian parts."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def as_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry (relative tolerance) and symmetrize exactly.

    Raises
    ------
    ValidationError
        If ``a`` is not square or deviates from its conjugate transpose by more
        than ``DEFAULT_TOL`` relative to its size.
    """
    arr = as_complex_matrix(a, name=name)
    n, m = arr.shape
    if n != m:
        raise ValidationError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if n == 0:
        return arr
    defect = sup_norm(arr - arr.conj().T)
    if defect > DEFAULT_TOL * max(1.0, sup_norm(arr)):
        raise ValidationError(f"{name}: not Hermitian (defect {defect:.3e})")
    return _hermitian_part(arr)


def as_positive_definite(a, name: str = "metric") -> np.ndarray:
    """Validate that ``a`` is Hermitian positive-definite.

    The smallest eigenvalue must be strictly positive, with no relative
    margin: metrics produced by ``exp(s)`` can be extremely ill-conditioned
    along near-divergent flows yet remain valid inputs.
    """
    h = as_hermitian(a, name=name)
    if h.size:
        w0 = np.linalg.eigvalsh(h)[0]
        if w0 <= 0:
            raise ValidationError(f"{name}: not positive-definite (smallest eigenvalue {w0:.6e})")
    return h


def hermitian_exp(s) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix via unitary eigendecomposition.

    Returns a Hermitian positive-definite matrix.

    Raises
    ------
    NumericError
        If the eigendecomposition fails to converge or the result overflows.
    """
    return _hermitian_exp(as_hermitian(s, name="exponent"))


def _hermitian_exp(h: np.ndarray) -> np.ndarray:
    """Unchecked kernel of :func:`hermitian_exp`; ``h`` must be Hermitian."""
    if h.shape[0] == 0:
        return h
    return _exp_from_eigh(*_eigh(h))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian matrix ``h``."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _exp_from_eigh(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exponential of the Hermitian matrix with eigenpairs ``(w, u)``; on
    stacks of eigenpairs, the stack of exponentials."""
    ew = np.exp(w)
    if not np.all(np.isfinite(ew)):
        raise NumericError("matrix exponential overflowed")
    return _hermitian_part((u * ew[..., None, :]) @ u.conj().swapaxes(-1, -2))


def _metric_adjoint(t: np.ndarray, h_src: np.ndarray, h_dst: np.ndarray) -> np.ndarray:
    """Adjoint of ``t`` with respect to vertex metrics, ``h_src^-1 t^dagger
    h_dst``: for ``t`` of shape (d_dst, d_src) it has shape (d_src, d_dst) and
    satisfies ``<t x, y>_{h_dst} = <x, adj y>_{h_src}`` with ``<x,y>_h =
    y^dagger h x``.  Unchecked: the metrics are Hermitian positive-definite
    of the sizes ``t`` asks for (empty sizes too)."""
    return np.linalg.solve(h_src, t.conj().T @ h_dst)


def _sinch(x: np.ndarray) -> np.ndarray:
    """Entrywise sinh(x)/x, analytic continuation 1 at x = 0."""
    small = np.abs(x) < 1e-5
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(xs) / xs)


def frechet_exp(s, x) -> np.ndarray:
    """Directional derivative of the matrix exponential at Hermitian ``s``.

    Computes ``d/dt exp(s + t x)`` at ``t = 0`` in the eigenbasis of ``s``:
    the divided-difference kernel ``(e^a - e^b)/(a - b)`` is evaluated stably
    as ``exp((a+b)/2) * sinch((a-b)/2)``.

    The direction ``x`` must be Hermitian; the result is Hermitian, and the
    map is self-adjoint for the trace pairing:
    ``tr(y frechet_exp(s, x)) = tr(frechet_exp(s, y) x)``.
    """
    hs = as_hermitian(s, name="base point")
    hx = as_hermitian(x, name="direction")
    if hs.shape != hx.shape:
        raise ValidationError(
            f"frechet_exp: shape mismatch {hs.shape} vs {hx.shape}"
        )
    return _frechet_exp(hs, hx)


def _frechet_exp(hs: np.ndarray, hx: np.ndarray) -> np.ndarray:
    """Unchecked kernel of :func:`frechet_exp`; ``hs`` and ``hx`` must be
    Hermitian of one shape."""
    if hs.shape[0] == 0:
        return hs
    w, u = _eigh(hs)
    return _frechet_apply(u, _frechet_kernel(w), hx)


def _frechet_kernel(w: np.ndarray) -> np.ndarray:
    """Divided differences ``(e^a - e^b)/(a - b)`` over the eigenvalues ``w``
    (over its last axis, for a stack)."""
    diff = w[..., :, None] - w[..., None, :]
    avg = 0.5 * (w[..., :, None] + w[..., None, :])
    return np.exp(avg) * _sinch(0.5 * diff)


def _frechet_apply(u: np.ndarray, kernel: np.ndarray, hx: np.ndarray) -> np.ndarray:
    """Derivative of exp along Hermitian ``hx`` at the base point with
    eigenvectors ``u`` and :func:`_frechet_kernel` ``kernel``; stacked
    arguments broadcast over their leading axes."""
    uh = u.conj().swapaxes(-1, -2)
    return _hermitian_part(u @ (kernel * (uh @ hx @ u)) @ uh)


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of n x n Hermitian matrices (trace pairing).

    Returns the ``(n^2, n, n)`` complex stack of the matrices E_jj, then
    (E_jk + E_kj)/sqrt(2), i(E_jk - E_kj)/sqrt(2) for each j < k, orthonormal
    under ``(a, b) -> Re tr(a b)``; shape ``(0, 0, 0)`` at n = 0.
    """
    basis = []
    for j in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[j, j] = 1.0
        basis.append(e)
    for j in range(n):
        for k in range(j + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, k] = _INV_SQRT2
            e[k, j] = _INV_SQRT2
            basis.append(e)
            f = np.zeros((n, n), dtype=np.complex128)
            f[j, k] = 1j * _INV_SQRT2
            f[k, j] = -1j * _INV_SQRT2
            basis.append(f)
    return np.array(basis, dtype=np.complex128).reshape(n * n, n, n)


def _hermitian_coords(m: np.ndarray) -> np.ndarray:
    """``Re tr(m c)`` for the matrices ``c`` of :func:`hermitian_basis`, in
    order, along the last axis for a stack ``m``; bitwise equal to
    ``float(np.trace(m @ c).real)``."""
    n = m.shape[-1]
    upper = ~np.tri(n, dtype=bool)
    up, lo = m[..., upper], m.swapaxes(-1, -2)[..., upper]
    out = np.empty(m.shape[:-2] + (n * n,))
    out[..., :n] = m.diagonal(0, -2, -1).real
    out[..., n::2] = up.real * _INV_SQRT2 + lo.real * _INV_SQRT2
    out[..., n + 1::2] = up.imag * _INV_SQRT2 - lo.imag * _INV_SQRT2
    return out


def _hermitian_from_coords(x: np.ndarray, n: int) -> np.ndarray:
    """``sum_i x_i c_i`` over :func:`hermitian_basis`, bitwise as if accumulated
    onto a zero matrix (``+ 0.0`` turns its negative zeros positive)."""
    upper = ~np.tri(n, dtype=bool)
    e, f = x[n::2] * _INV_SQRT2, x[n + 1::2] * _INV_SQRT2
    out = np.zeros((n, n), dtype=np.complex128)
    out.real[np.diag_indices(n)] = x[:n]
    out.real[upper] = out.real.T[upper] = e
    out.imag[upper], out.imag.T[upper] = f, -f
    return out + 0.0
