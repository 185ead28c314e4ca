"""Closed-form analytic oracles for quadratic dynamics and homogeneity.

Everything here is independent ground truth: a dense symmetric eigensolver
built from round-robin Jacobi rotations, the divergence criterion for quadratics,
exact eigenmode traces of the GD recurrence, and the orthogonality identity
satisfied by positively homogeneous parameter blocks. The numerics modules
are validated against these, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostFunction, WeightDecayWrapped, as_params
from .errors import ContractViolation


@dataclass(frozen=True)
class QuadraticSpectrum:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _check_symmetric(P) -> np.ndarray:
    P = np.ascontiguousarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ContractViolation(f"matrix must be square, got shape {P.shape}")
    if float(np.max(np.abs(P - P.T), initial=0.0)) > 1e-12:
        raise ContractViolation("matrix is not symmetric")
    return 0.5 * (P + P.T)


def _round_robin_rounds(n):
    """Brent-Luk (circle) ordering: n-1 rounds (n even) of n/2 disjoint pairs.

    Round r pairs r with the last index and r+k with r-k (mod n-1), so every
    pair meets exactly once per sweep; odd n pairs r with a dummy index n,
    and that pair is dropped. Returns, one row per round, flat indices into
    an n x n matrix: ``angle`` holds its pairs' (p, q), (p, p) and (q, q)
    entries, and ``block`` their (p, p), (q, q), (p, q) and (q, p) entries.
    """
    m = n + n % 2
    r = np.arange(m - 1)[:, None]
    k = np.arange(1, m // 2)[None, :]
    a = np.concatenate((r, (r + k) % (m - 1)), axis=1)
    b = np.concatenate((np.full_like(r, m - 1), (r - k) % (m - 1)), axis=1)
    if n % 2:
        a, b = a[:, 1:], b[:, 1:]
    p, q = np.minimum(a, b), np.maximum(a, b)
    pp, qq, pq, qp = p * n + p, q * n + q, p * n + q, q * n + p
    return np.concatenate((pq, pp, qq), axis=1), np.concatenate((pp, qq, pq, qp), axis=1)


def jacobi_spectrum(P, max_sweeps=60) -> QuadraticSpectrum:
    """Full eigendecomposition of a symmetric matrix by Jacobi rotations.

    Each sweep is n-1 round-robin rounds; a round rotates its disjoint
    (p, q) pairs at once, as one rotation J applied as J^T A J. Sweeps until
    the off-diagonal Frobenius mass drops below 1e-14 * ||P||_F. Intended
    for the small dense matrices used as oracles (dimension <= ~100).
    """
    A = _check_symmetric(P).copy()
    n = A.shape[0]
    QT = np.eye(n)  # rows are eigenvector candidates
    norm_p = float(np.linalg.norm(A))
    if n == 1 or norm_p == 0.0:
        order = np.argsort(np.diag(A))
        return QuadraticSpectrum(np.diag(A)[order].copy(), QT[order].T.copy())
    threshold = 1e-14 * norm_p

    off_mask = ~np.eye(n, dtype=bool)
    # entries this small cannot push the off-diagonal mass anywhere near the
    # threshold, and leaving them unrotated keeps eigenvectors at full precision
    skip_below = 1e-4 * threshold / n
    rounds = list(zip(*_round_robin_rounds(n)))
    eye = np.eye(n)
    # a skipped pair may have apq == 0, so tau is inf or nan there; its t is set to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            off = float(np.linalg.norm(A[off_mask]))
            if off <= threshold:
                break
            for angle, block in rounds:
                apq, app, aqq = A.take(angle).reshape(3, -1)
                live = np.abs(apq) > skip_below
                if not live.any():
                    continue
                # stable rotation angle (Rutishauser); hypot keeps the root finite
                # where tau*tau would overflow, giving t = 1/(2 tau) there.
                # t = 0 makes a skipped pair's rotation exactly the identity.
                tau = (aqq - app) / (2.0 * apq)
                t = np.where(live, 1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau)), 0.0)
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # rows p, q of J^T M are c*M[p] - s*M[q] and s*M[p] + c*M[q]
                J = eye.copy()
                J.put(block, np.concatenate((c, c, s, -s)))
                A = J.T @ A @ J
                QT = J.T @ QT
                # each pair's 2x2 block from the exact update formulas
                shift = t * apq
                off_pq = np.where(live, 0.0, apq)
                A.put(block, np.concatenate((app - shift, aqq + shift, off_pq, off_pq)))
        else:
            raise RuntimeError(f"Jacobi sweeps did not converge in {max_sweeps} passes")

    eigvals = np.diag(A).copy()
    order = np.argsort(eigvals)
    return QuadraticSpectrum(eigvals[order], QT[order].T.copy())


def quadratic_divergence_oracle(P, eta: float) -> bool:
    """True iff GD with step eta diverges on the quadratic with Hessian P.

    Divergence happens exactly when some eigenvalue has |1 - eta*lambda| > 1,
    i.e. lambda > 2/eta or lambda < 0.
    """
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    lams = jacobi_spectrum(P).eigenvalues
    return bool(np.any(np.abs(1.0 - eta * lams) > 1.0))


def eigenmode_trace(P, theta0, eta: float, t: int) -> np.ndarray:
    """Per-mode coefficients (1 - eta*lambda_i)^t <q_i, theta0> of the GD recurrence.

    Modes are ordered like jacobi_spectrum(P): ascending eigenvalue.
    """
    spec = jacobi_spectrum(P)
    theta0 = as_params(theta0, spec.eigenvalues.shape[0])
    coeffs0 = spec.eigenvectors.T @ theta0
    return (1.0 - eta * spec.eigenvalues) ** t * coeffs0


def homogeneity_orthogonality(cost: CostFunction, theta) -> float:
    """Inner product of the data-fit gradient's zeta block with zeta itself.

    Zero (to rounding) for genuinely positively homogeneous parameter blocks;
    for a weight-decay-wrapped cost the decay term is excluded, since the
    identity concerns the data-fit part only.
    """
    if cost.homogeneous_indices is None:
        raise ContractViolation("cost declares no homogeneous parameter block")
    theta = as_params(theta, cost.dimension)
    zeta = theta[cost.homogeneous_indices]
    if not np.any(zeta):
        raise ContractViolation("zeta block is zero; orthogonality ratio undefined")
    data_fit = cost.inner if isinstance(cost, WeightDecayWrapped) else cost
    grad = data_fit.gradient(theta)
    return float(grad[cost.homogeneous_indices] @ zeta)


def rp_dir_closed_forms(P, theta, eta: float, q=None):
    """Exact relative progress and directional smoothness on a quadratic.

    With g = P theta + q:  dir = g^T P g / ||g||^2  and  rp = -1 + (eta/2) * dir.
    """
    P = _check_symmetric(P)
    theta = as_params(theta, P.shape[0])
    g = P @ theta if q is None else P @ theta + as_params(q, P.shape[0])
    gg = float(g @ g)
    if gg == 0.0:
        raise ContractViolation("stationary point: closed forms undefined")
    dir_val = float(g @ (P @ g)) / gg
    return -1.0 + 0.5 * eta * dir_val, dir_val
