"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .params import ParamRegistry

# every check's central-difference step and pass threshold on the relative error
H = 1e-6
TOL = 1e-4


@dataclass
class GradCheckReport:
    max_rel_err: float = 0.0
    passed: bool = True

    def record(self, err: float):
        if err > self.max_rel_err:
            self.max_rel_err = err
        if err > TOL:
            self.passed = False


def _rel_err(a: float, n: float) -> float:
    # unit floor on the denominator: below it, absolute error is the honest
    # measure (central differences bottom out near sqrt(eps) anyway)
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def grad_check(f, params: ParamRegistry, entries_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic grads of f() against central differences.

    f must be a deterministic closure returning a scalar loss Tensor over the
    current registry values. With entries_per_param set, a seeded random
    subset of each parameter's entries is probed instead of all of them.
    It runs under tensor.float64() on float64 copies of the parameter arrays.
    """
    originals = {path: p.data for path, p in params.items()}
    for _, p in params.items():
        p.data = p.data.astype(np.float64)
    try:
        with T.float64():
            return _check(f, params, entries_per_param, rng)
    finally:
        params.zero_grads()
        for path, p in params.items():
            p.data = originals[path]


def _check(f, params: ParamRegistry, entries_per_param, rng) -> GradCheckReport:
    params.zero_grads()
    loss = f()
    v0 = loss.item()
    loss.backward()
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    v1 = f().item()
    if v1 != v0:
        raise ContractError("grad_check requires a deterministic computation "
                            f"(got {v0} then {v1})")
    report = GradCheckReport()
    for path, p in params.items():
        flat = p.data.ravel()
        n = flat.size
        if entries_per_param is not None and n > entries_per_param:
            if rng is None:
                rng = np.random.Generator(np.random.Philox(0))
            idxs = rng.choice(n, size=entries_per_param, replace=False)
        else:
            idxs = range(n)
        aflat = analytic[path].ravel()
        for i in idxs:
            old = flat[i]
            flat[i] = old + H
            fp = f().item()
            flat[i] = old - H
            fm = f().item()
            flat[i] = old
            numeric = (fp - fm) / (2.0 * H)
            report.record(_rel_err(aflat[i], numeric))
    return report
