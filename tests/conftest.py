"""Shared test plumbing: the acceptance-line reporter, the SVM convex
oracles and the CCA residual oracle."""

import numpy as np
import pytest
from scipy.optimize import minimize

from dictforge.classifier import svm_objective

_RESULTS: list[tuple[int, str, str]] = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line for an acceptance criterion, then assert.

    Usage: acceptance(criterion_number, ok_bool, detail). A final summary
    block prints every recorded line after the run.
    """

    def record(criterion: int, ok, detail: str = ""):
        if ok is None:
            _RESULTS.append((criterion, "SKIP", detail))
            pytest.skip(detail)
        _RESULTS.append((criterion, "PASS" if ok else "FAIL", detail))
        assert ok, f"criterion {criterion}: {detail}"

    return record


def _svm_dual_optimum(X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Optimal value of min 0.5 (|w|^2 + b^2) + C sum hinge(y (w.x + b)).

    Solves the dual box-QP min 0.5 a'Qa - 1'a, 0 <= a <= C, with
    Q = (y x~)(y x~)' over bias-augmented rows x~ = (x, 1), by L-BFGS-B,
    and returns the primal objective at w~ = sum a_i y_i x~_i.  The duality
    gap at the solution certifies the value, so no external solver is
    needed.
    """
    Yx = y[:, None] * np.hstack([X, np.ones((len(X), 1))])
    Q = Yx @ Yx.T
    result = minimize(
        lambda a: (0.5 * a @ Q @ a - a.sum(), Q @ a - 1.0),
        np.zeros(len(X)),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, C)] * len(X),
        options={"ftol": 0.0, "gtol": 1e-12, "maxiter": 10_000},
    )
    w = Yx.T @ result.x
    primal = svm_objective(w[:-1], w[-1], X, y, C)
    gap = primal + result.fun  # result.fun is minus the dual objective
    # far inside the 1e-4 the SVM tests allow; below zero only by rounding
    assert -1e-12 <= gap <= 1e-6 * max(1.0, primal), f"oracle duality gap {gap:.2e}"
    return primal


def _cvxpy_optimum(X: np.ndarray, y: np.ndarray, C: float) -> float:
    import cvxpy as cp

    w = cp.Variable(X.shape[1])
    b = cp.Variable()
    obj = 0.5 * (cp.sum_squares(w) + cp.square(b)) + C * cp.sum(
        cp.pos(1 - cp.multiply(y, X @ w + b))
    )
    problem = cp.Problem(cp.Minimize(obj))
    problem.solve()
    return problem.value


@pytest.fixture
def svm_oracles():
    """``svm_oracles(X, y, C)`` maps an oracle's name to the optimal primal
    objective it finds: always the scipy dual QP, plus cvxpy when it is
    installed."""
    try:
        import cvxpy  # noqa: F401
    except ImportError:
        extra = {}
    else:
        extra = {"cvxpy": _cvxpy_optimum}

    def solve(X, y, C):
        oracles = {"dual-qp": _svm_dual_optimum, **extra}
        return {name: oracle(X, y, C) for name, oracle in oracles.items()}

    return solve


@pytest.fixture
def cca_residual_oracle():
    """``cca_residual_oracle(summary, model)`` is ‖T vⱼ − σⱼ uⱼ‖ per
    component, computed without any whitening: with B = Cxx + k1*I and
    dⱼ = Cxz φ₂ⱼ − σⱼ B φ₁ⱼ, the residual is √(dⱼᵀ B⁻¹ dⱼ)."""

    def residuals(summary, model):
        B = summary.cxx().toarray() + model.kappa[0] * np.eye(summary.d1)
        d = summary.cxz() @ model.phi2 - (B @ model.phi1) * model.singular_values
        return np.sqrt(np.clip(np.sum(d * np.linalg.solve(B, d), axis=0), 0.0, None))

    return residuals


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for n, status, detail in sorted(_RESULTS):
        terminalreporter.write_line(f"criterion {n:2d}: {status}  {detail}")
