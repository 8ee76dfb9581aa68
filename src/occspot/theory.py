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

The measures are computed on stacks of joints of one support shape, a
``(K, a, b)`` array; a single-joint function is a stack of one.  The
Bayes-bound and decomposition sweeps draw their joints one at a time, in
the generator's order, then compute each support shape's stack at once
(at most 49 shapes); the risk-ordering sweep stays a loop over joints (see
:func:`_sq_risk`).  Every sum is numpy's own reduction over the same terms
in the same order as on one joint, so a stack gives each joint the bits it
would get alone:

* a sum along the last axis of a C-contiguous stack runs, on each row, the
  pairwise loop that ``.sum()`` runs on that row alone;
* a sum over a middle axis adds whole rows in order, so the zero rows that
  pad a coarser map's joint up to the stack's state count add +0.0 (the
  sweeps' joints have at least two T states: a one-column sum is pairwise);
* a masked sum (``p[p > 0]``) has a term count that varies by joint, and
  numpy's pairwise order depends on that count (a plain loop below 8 terms,
  eight accumulators from 8 on).  :func:`_row_sums` therefore groups the
  rows by term count and sums each ``(rows, count)`` block along its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
#: the sweeps draw, then compute, this many joints at a time
_CHUNK = 2048


def _check_joints(flat: np.ndarray) -> None:
    """Raise ValueError unless each row of `flat` is a probability vector."""
    if not flat.min(initial=0.0) >= 0:  # NaN fails too; +inf fails the sum
        raise ValueError("joint has negative or NaN mass")
    total = flat.sum(axis=1)
    off = np.abs(total - 1.0) > _TOL
    if off.any():
        raise ValueError(f"joint mass {total[off][0]} != 1 within {_TOL}")


@dataclass(frozen=True)
class DiscreteJoint:
    """A validated joint probability tensor (2-way or 3-way)."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=np.float64, order="C")  # a copy
        if arr.ndim not in (2, 3):
            raise ValueError("joint must be 2- or 3-dimensional")
        _check_joints(arr.reshape(1, -1))
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


# The private stack functions below trust their input: the public functions
# and the sweeps validate each joint once, and every array derived from a
# joint is a joint by construction.

def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each row of a ragged array, as ``.sum()`` of that row alone.

    `terms` holds the rows end to end, row i with ``counts[i]`` entries.
    The rows of each count are summed as one ``(rows, count)`` block.
    """
    out = np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    for m in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == m)
        out[rows] = terms[starts[rows, None] + np.arange(m)].sum(axis=1)
    return out


def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of `p` (K, n), with 0 ln 0 = 0."""
    mask = p > 0
    nz = p[mask]
    return -_row_sums(nz * np.log(nz), mask.sum(axis=1))


def _mis(p: np.ndarray) -> np.ndarray:
    """I(Z, T) of each joint in the stack `p` (K, n_z, n_t)."""
    pz = p.sum(axis=2)
    pt = p.sum(axis=1)
    mask = p > 0
    nz = p[mask]
    terms = nz * np.log(nz / (pz[:, :, None] * pt[:, None, :])[mask])
    return _row_sums(terms, mask.sum(axis=(1, 2)))


def _cmis(slabs: np.ndarray) -> np.ndarray:
    """I(O, T | Z) of each joint; ``slabs[k, z]`` is p(o, t, z) of joint k."""
    slabs = np.ascontiguousarray(slabs)  # so each slab sums as one row
    k, n_z = slabs.shape[:2]
    pz = slabs.reshape(k, n_z, -1).sum(axis=2)
    live = pz > 0
    mi = np.zeros((k, n_z))
    mi[live] = _mis(slabs[live] / pz[live][:, None, None])
    total = np.zeros(k)
    for z in range(n_z):  # in state order, as a running total
        total += pz[:, z] * mi[:, z]
    return total


def _bayes(p: np.ndarray) -> np.ndarray:
    return 1.0 - p.max(axis=2).sum(axis=1)


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    if (p < 0).any():
        raise ValueError("distribution has negative mass")
    if not np.isfinite(p).all():
        raise ValueError("distribution mass must be finite")
    return float(_entropies(p.reshape(1, -1))[0])


def mutual_information(j) -> float:
    """I(Z, T) of a 2-way joint, zero-mass terms skipped."""
    return float(_mis(_as_joint(j, 2, "mutual_information")[None])[0])


def conditional_mi(j) -> float:
    """I(O, T | Z) of a 3-way joint over (O, T, Z), by exact enumeration."""
    p = _as_joint(j, 3, "conditional_mi")
    return float(_cmis(np.moveaxis(p, 2, 0)[None])[0])


def bayes_error(j) -> float:
    """Minimum achievable classification error: 1 - sum_z max_t p(z, t)."""
    return float(_bayes(_as_joint(j, 2, "bayes_error")[None])[0])


def _report(cls, rows: dict):
    """The fields of a stack of one joint, as a `cls` report."""
    return cls(**{f.name: rows[f.name][0].item() for f in fields(cls)})


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the Bayes-error bound plus the realized slack."""

    h_t: float
    mi: float
    bayes_error: float
    bound_value: float
    slack: float
    satisfied: bool


def _bound_rows(p: np.ndarray) -> dict:
    """The BoundReport fields of each joint in the stack `p`."""
    h_t = _entropies(p.sum(axis=1))
    mi = _mis(p)
    pe = _bayes(p)
    bound = 1.0 - np.exp(-h_t + mi)
    slack = bound - pe
    return {"h_t": h_t, "mi": mi, "bayes_error": pe, "bound_value": bound,
            "slack": slack, "satisfied": slack >= -_TOL}


def check_bayes_bound(j) -> BoundReport:
    """Evaluate ``P_e <= 1 - exp(-H(T) + I(Z, T))`` exactly."""
    p = _as_joint(j, 2, "check_bayes_bound")
    return _report(BoundReport, _bound_rows(p[None]))


def _check_map(f, n: int, name: str) -> np.ndarray:
    """`f` as a map of `n` states to non-negative state indices."""
    f = np.asarray(f, dtype=np.int64)
    if f.shape != (n,):
        raise ValueError(f"{name} must map each of the {n} states")
    if (f < 0).any():
        raise ValueError(f"{name} must use non-negative state indices")
    return f


def _map_slabs(p: np.ndarray, f: np.ndarray, n_z: int) -> np.ndarray:
    """Slabs p(o, t, z) = p(o, t) 1[z = f(o)] of Z = f(O), z first.

    Slabs at and past a joint's own ``f.max() + 1`` are zero.
    """
    hit = f[:, None, :, None] == np.arange(n_z)[None, :, None, None]
    return np.where(hit, p[:, None], 0.0)


def _induced(slabs: np.ndarray) -> np.ndarray:
    """Joints p(z, t) of the slabs: the O states of each z added in order,
    as a running sum (never numpy's pairwise order)."""
    return slabs.cumsum(axis=2)[:, :, -1].copy()


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


def _lemma1_rows(p: np.ndarray, f_occ: np.ndarray, f_mae: np.ndarray) -> dict:
    """The Lemma1Report fields of each joint over (O, T) and its two maps."""
    occ = _map_slabs(p, f_occ, int(f_occ.max()) + 1)
    mae = _map_slabs(p, f_mae, int(f_mae.max()) + 1)
    mi_occ, mi_mae = _mis(_induced(occ)), _mis(_induced(mae))
    gap_mae, gap_occ = _cmis(mae), _cmis(occ)
    lhs = mi_occ - mi_mae
    rhs = gap_mae - gap_occ
    return {"mi_occ": mi_occ, "mi_mae": mi_mae, "gap_mae": gap_mae,
            "gap_occ": gap_occ, "lhs": lhs, "rhs": rhs,
            "holds": np.abs(lhs - rhs) <= _TOL}


def lemma1_decomposition(j, f_occ: np.ndarray, f_mae: np.ndarray
                         ) -> Lemma1Report:
    """Verify the decomposition for deterministic representations of O.

    `j` is a joint over (O, T); `f_occ`/`f_mae` map each O state to a
    representation state.  Non-deterministic representations are out of
    scope (the identity is proven under this precondition only).
    """
    p = _as_joint(j, 2, "lemma1_decomposition")
    f_occ = _check_map(f_occ, p.shape[0], "f_occ")
    f_mae = _check_map(f_mae, p.shape[0], "f_mae")
    return _report(Lemma1Report,
                   _lemma1_rows(p[None], f_occ[None], f_mae[None]))


@dataclass(frozen=True)
class RiskOrderingReport:
    """Classification and regression risks before/after garbling Z."""

    sq_risk: float          # E[Var(T | Z)]
    sq_risk_garbled: float
    bayes: float
    bayes_garbled: float
    holds: bool


def _sq_risk(p: np.ndarray, t_values: np.ndarray) -> float:
    """E[Var(T | Z)] of one joint over (Z, T), T valued `t_values`.

    Each conditional mean and variance is a dot product of one row, as BLAS
    adds it; a stacked product may add in another order, so this stays a
    loop over the rows.
    """
    pz = p.sum(axis=1)
    live = pz > 0
    cond = p[live] / pz[live, None]
    mean = np.array([row @ t_values for row in cond])
    risk = 0.0
    for w, row, dev2 in zip(pz[live], cond, (t_values - mean[:, None]) ** 2):
        risk += w * float(row @ dev2)
    return float(risk)


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
    g = _check_map(g, p.shape[0], "g")

    garbled = _induced(_map_slabs(p[None], g[None], int(g.max()) + 1))[0]
    r, rg = _sq_risk(p, t_values), _sq_risk(garbled, t_values)
    be, beg = float(_bayes(p[None])[0]), float(_bayes(garbled[None])[0])
    holds = bool(r <= rg + _TOL and be <= beg + _TOL)
    return RiskOrderingReport(sq_risk=r, sq_risk_garbled=rg,
                              bayes=be, bayes_garbled=beg, holds=holds)


# -- randomized verification sweeps -------------------------------------------

def _draw_mass(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Exponential masses, about a fifth of them zeroed, never all zero."""
    mass = rng.exponential(size=shape)
    mass *= rng.random(shape) >= _SPARSITY
    if mass.sum() == 0:
        mass.flat[int(rng.integers(mass.size))] = 1.0
    return mass


def random_joint(rng: np.random.Generator,
                 shape: tuple[int, ...]) -> DiscreteJoint:
    """Random joint via normalized exponentials, about a fifth of them zeroed."""
    mass = _draw_mass(rng, shape)
    return DiscreteJoint(mass / mass.sum())


def _sweep_rows(n: int, seed: int, draw, rows):
    """Yield the fields of `n` random draws, one array each, _CHUNK draws at
    a time and in draw order.

    ``draw(rng)`` returns a joint's masses and the maps that go with it;
    ``rows(p, *maps)`` computes the fields of a stack of joints of one
    support shape.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, n, _CHUNK):
        draws = [draw(rng) for _ in range(min(_CHUNK, n - start))]
        by_shape: dict[tuple, list[int]] = {}
        for i, d in enumerate(draws):
            by_shape.setdefault(d[0].shape, []).append(i)
        out: dict[str, np.ndarray] = {}
        for idx in by_shape.values():
            mass, *maps = (np.stack(col)
                           for col in zip(*(draws[i] for i in idx)))
            p = mass / mass.reshape(len(idx), -1).sum(axis=1)[:, None, None]
            _check_joints(p.reshape(len(idx), -1))
            for name, v in rows(p, *maps).items():
                out.setdefault(name, np.empty(len(draws), v.dtype))[idx] = v
        yield out


def _draw_bound(rng: np.random.Generator) -> tuple:
    shape = (int(rng.integers(2, _MAX_SUPPORT + 1)),
             int(rng.integers(2, _MAX_SUPPORT + 1)))
    return (_draw_mass(rng, shape),)


def _draw_lemma1(rng: np.random.Generator) -> tuple:
    n_o = int(rng.integers(2, _MAX_SUPPORT + 1))
    n_t = int(rng.integers(2, _MAX_SUPPORT + 1))
    mass = _draw_mass(rng, (n_o, n_t))
    f_occ = rng.integers(0, int(rng.integers(1, n_o + 1)), size=n_o)
    f_mae = rng.integers(0, int(rng.integers(1, n_o + 1)), size=n_o)
    return mass, f_occ, f_mae


def sweep_bayes_bound(n: int, seed: int) -> dict:
    """Check the Bayes bound on `n` random joints; reports the worst slack."""
    min_slack = np.inf
    violations = 0
    for r in _sweep_rows(n, seed, _draw_bound, _bound_rows):
        min_slack = min(min_slack, r["slack"].min())
        violations += int(np.count_nonzero(~r["satisfied"]))
    return {"sweeps": n, "min_slack": float(min_slack), "violations": violations}


def sweep_lemma1(n: int, seed: int) -> dict:
    """Check the decomposition identity on random joints and random maps."""
    worst = 0.0
    violations = 0
    for r in _sweep_rows(n, seed, _draw_lemma1, _lemma1_rows):
        worst = max(worst, np.abs(r["lhs"] - r["rhs"]).max())
        violations += int(np.count_nonzero(~r["holds"]))
    return {"sweeps": n, "max_identity_gap": float(worst),
            "violations": violations}


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
