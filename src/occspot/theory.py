"""Exact finite-distribution sandbox for the information-theoretic claims.

Everything here enumerates small discrete joints exactly (supports up to
~16 states per variable), in nats.  The checks cover:

* the Bayes-error bound ``P_e <= 1 - exp(-H(T) + I(Z, T))``;
* the mutual-information decomposition behind the pre-training comparison,
  ``I(z_occ, T) - I(z_mae, T) = I(O, T | z_mae) - I(O, T | z_occ)`` when
  both representations are deterministic functions of the labels O;
* the risk ordering under garbling: coarsening a representation can only
  raise both the Bayes classification error and the minimum expected
  squared regression error ``E[Var(T | Z)]``.

No estimators are involved; the claims are inequalities/identities and are
verified to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteJoint", "BoundReport", "Lemma1Report", "RiskOrderingReport",
    "entropy", "mutual_information", "conditional_mi", "bayes_error",
    "check_bayes_bound", "lemma1_decomposition", "risk_ordering",
    "random_joint", "sweep_bayes_bound", "sweep_lemma1", "sweep_risk_ordering",
]

#: mass tolerance of a joint, and the slack every exact check allows
_TOL = 1e-12
#: the sweeps draw each variable's support size from 2.._MAX_SUPPORT and
#: zero each joint entry with probability _SPARSITY
_MAX_SUPPORT = 8
_SPARSITY = 0.2


@dataclass(frozen=True)
class DiscreteJoint:
    """A validated joint probability tensor (2-way or 3-way)."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=np.float64, copy=True)
        if arr.ndim not in (2, 3):
            raise ValueError("joint must be 2- or 3-dimensional")
        if (arr < 0).any():
            raise ValueError("joint has negative mass")
        if abs(arr.sum() - 1.0) > _TOL:
            raise ValueError(f"joint mass {arr.sum()} != 1 within {_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.p.shape


def _as_joint(j, ndim: int, name: str) -> np.ndarray:
    """The validated probability array of `j`, checked to be `ndim`-way."""
    p = j.p if isinstance(j, DiscreteJoint) else DiscreteJoint(np.asarray(j)).p
    if p.ndim != ndim:
        raise ValueError(f"{name} expects a {ndim}-way joint")
    return p


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    if (p < 0).any():
        raise ValueError("distribution has negative mass")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


# The private array functions below trust their input: the public functions
# validate a joint once, and every array derived from it is a joint by
# construction.

def _mi(p: np.ndarray) -> float:
    pz = p.sum(axis=1, keepdims=True)
    pt = p.sum(axis=0, keepdims=True)
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / (pz @ pt)[mask])).sum())


def _cmi(p: np.ndarray) -> float:
    total = 0.0
    for z in range(p.shape[2]):
        slab = p[:, :, z]
        pz = slab.sum()
        if pz == 0:
            continue
        total += pz * _mi(slab / pz)
    return total


def _bayes(p: np.ndarray) -> float:
    return float(1.0 - p.max(axis=1).sum())


def mutual_information(j) -> float:
    """I(Z, T) of a 2-way joint, zero-mass terms skipped."""
    return _mi(_as_joint(j, 2, "mutual_information"))


def conditional_mi(j) -> float:
    """I(O, T | Z) of a 3-way joint over (O, T, Z), by exact enumeration."""
    return _cmi(_as_joint(j, 3, "conditional_mi"))


def bayes_error(j) -> float:
    """Minimum achievable classification error: 1 - sum_z max_t p(z, t)."""
    return _bayes(_as_joint(j, 2, "bayes_error"))


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the Bayes-error bound plus the realized slack."""

    h_t: float
    mi: float
    bayes_error: float
    bound_value: float
    slack: float
    satisfied: bool


def check_bayes_bound(j) -> BoundReport:
    """Evaluate ``P_e <= 1 - exp(-H(T) + I(Z, T))`` exactly."""
    p = _as_joint(j, 2, "check_bayes_bound")
    h_t = entropy(p.sum(axis=0))
    mi = _mi(p)
    pe = _bayes(p)
    bound = 1.0 - np.exp(-h_t + mi)
    slack = bound - pe
    return BoundReport(h_t=h_t, mi=mi, bayes_error=pe, bound_value=float(bound),
                       slack=float(slack), satisfied=bool(slack >= -_TOL))


def _apply_map(p_ot: np.ndarray, f: np.ndarray, n_z: int) -> np.ndarray:
    """Joint (Z, T) induced by the deterministic map z = f(o)."""
    out = np.zeros((n_z, p_ot.shape[1]))
    for o in range(p_ot.shape[0]):
        out[f[o]] += p_ot[o]
    return out


def _conditional_mi_given_map(p_ot: np.ndarray, f: np.ndarray, n_z: int) -> float:
    """I(O, T | Z) where Z = f(O); p(o, t, z) = p(o, t) 1[z = f(o)]."""
    p3 = np.zeros((p_ot.shape[0], p_ot.shape[1], n_z))
    for o in range(p_ot.shape[0]):
        p3[o, :, f[o]] = p_ot[o]
    return _cmi(p3)


@dataclass(frozen=True)
class Lemma1Report:
    """Both sides of the information-gap decomposition."""

    mi_occ: float
    mi_mae: float
    gap_mae: float  # I(O, T | z_mae)
    gap_occ: float  # I(O, T | z_occ)
    lhs: float      # mi_occ - mi_mae
    rhs: float      # gap_mae - gap_occ
    holds: bool


def lemma1_decomposition(j, f_occ: np.ndarray, f_mae: np.ndarray
                         ) -> Lemma1Report:
    """Verify the decomposition for deterministic representations of O.

    `j` is a joint over (O, T); `f_occ`/`f_mae` map each O state to a
    representation state.  Non-deterministic representations are out of
    scope (the identity is proven under this precondition only).
    """
    p = _as_joint(j, 2, "lemma1_decomposition")
    f_occ = np.asarray(f_occ, dtype=np.int64)
    f_mae = np.asarray(f_mae, dtype=np.int64)
    for name, f in (("f_occ", f_occ), ("f_mae", f_mae)):
        if f.shape != (p.shape[0],):
            raise ValueError(f"{name} must map each of the {p.shape[0]} O states")
        if (f < 0).any():
            raise ValueError(f"{name} must use non-negative state indices")

    nz_occ, nz_mae = int(f_occ.max()) + 1, int(f_mae.max()) + 1
    mi_occ = _mi(_apply_map(p, f_occ, nz_occ))
    mi_mae = _mi(_apply_map(p, f_mae, nz_mae))
    gap_mae = _conditional_mi_given_map(p, f_mae, nz_mae)
    gap_occ = _conditional_mi_given_map(p, f_occ, nz_occ)
    lhs = mi_occ - mi_mae
    rhs = gap_mae - gap_occ
    return Lemma1Report(mi_occ=mi_occ, mi_mae=mi_mae, gap_mae=gap_mae,
                        gap_occ=gap_occ, lhs=lhs, rhs=rhs,
                        holds=bool(abs(lhs - rhs) <= _TOL))


@dataclass(frozen=True)
class RiskOrderingReport:
    """Classification and regression risks before/after garbling Z."""

    sq_risk: float          # E[Var(T | Z)]
    sq_risk_garbled: float
    bayes: float
    bayes_garbled: float
    holds: bool


def risk_ordering(j, t_values: np.ndarray, g: np.ndarray) -> RiskOrderingReport:
    """Check that garbling Z can only hurt, for both downstream task types.

    `j` is a joint over (Z, T); `t_values` assigns a numeric value to each T
    state (regression target); `g` deterministically coarsens Z to Z'.
    Verifies ``E[Var(T|Z)] <= E[Var(T|Z')]`` and
    ``bayes_error(Z) <= bayes_error(Z')``.
    """
    p = _as_joint(j, 2, "risk_ordering")
    t_values = np.asarray(t_values, dtype=np.float64)
    if t_values.shape != (p.shape[1],):
        raise ValueError("t_values must assign one numeric value per T state")
    if not np.isfinite(t_values).all():
        raise ValueError("t_values must be numeric and finite")
    g = np.asarray(g, dtype=np.int64)
    if g.shape != (p.shape[0],):
        raise ValueError("g must map each Z state")

    def sq_risk(pzt: np.ndarray) -> float:
        risk = 0.0
        for z in range(pzt.shape[0]):
            pz = pzt[z].sum()
            if pz == 0:
                continue
            cond = pzt[z] / pz
            mean = float(cond @ t_values)
            risk += pz * float(cond @ (t_values - mean) ** 2)
        return risk

    garbled = _apply_map(p, g, int(g.max()) + 1)
    r, rg = sq_risk(p), sq_risk(garbled)
    be, beg = _bayes(p), _bayes(garbled)
    holds = bool(r <= rg + _TOL and be <= beg + _TOL)
    return RiskOrderingReport(sq_risk=r, sq_risk_garbled=rg,
                              bayes=be, bayes_garbled=beg, holds=holds)


# -- randomized verification sweeps -------------------------------------------

def random_joint(rng: np.random.Generator,
                 shape: tuple[int, ...]) -> DiscreteJoint:
    """Random joint via normalized exponentials, about a fifth of them zeroed."""
    mass = rng.exponential(size=shape)
    mass *= rng.random(shape) >= _SPARSITY
    if mass.sum() == 0:
        mass.flat[int(rng.integers(mass.size))] = 1.0
    return DiscreteJoint(mass / mass.sum())


def sweep_bayes_bound(n: int, seed: int) -> dict:
    """Check the Bayes bound on `n` random joints; reports the worst slack."""
    rng = np.random.default_rng(seed)
    min_slack = np.inf
    violations = 0
    for _ in range(n):
        shape = (int(rng.integers(2, _MAX_SUPPORT + 1)),
                 int(rng.integers(2, _MAX_SUPPORT + 1)))
        rep = check_bayes_bound(random_joint(rng, shape))
        min_slack = min(min_slack, rep.slack)
        violations += not rep.satisfied
    return {"sweeps": n, "min_slack": float(min_slack), "violations": violations}


def sweep_lemma1(n: int, seed: int) -> dict:
    """Check the decomposition identity on random joints and random maps."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    for _ in range(n):
        n_o = int(rng.integers(2, _MAX_SUPPORT + 1))
        n_t = int(rng.integers(2, _MAX_SUPPORT + 1))
        j = random_joint(rng, (n_o, n_t))
        f_occ = rng.integers(0, int(rng.integers(1, n_o + 1)), size=n_o)
        f_mae = rng.integers(0, int(rng.integers(1, n_o + 1)), size=n_o)
        rep = lemma1_decomposition(j, f_occ, f_mae)
        worst = max(worst, abs(rep.lhs - rep.rhs))
        violations += not rep.holds
    return {"sweeps": n, "max_identity_gap": float(worst), "violations": violations}


def sweep_risk_ordering(n: int, seed: int) -> dict:
    """Check both risk orderings on random joints and random garblings."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst_sq = np.inf
    worst_bayes = np.inf
    for _ in range(n):
        n_z = int(rng.integers(2, _MAX_SUPPORT + 1))
        n_t = int(rng.integers(2, _MAX_SUPPORT + 1))
        j = random_joint(rng, (n_z, n_t))
        g = rng.integers(0, int(rng.integers(1, n_z + 1)), size=n_z)
        t_values = rng.normal(size=n_t)
        rep = risk_ordering(j, t_values, g)
        worst_sq = min(worst_sq, rep.sq_risk_garbled - rep.sq_risk)
        worst_bayes = min(worst_bayes, rep.bayes_garbled - rep.bayes)
        violations += not rep.holds
    return {"sweeps": n, "min_sq_margin": float(worst_sq),
            "min_bayes_margin": float(worst_bayes), "violations": violations}
