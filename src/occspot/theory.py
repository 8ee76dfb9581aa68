"""Exact finite-distribution sandbox for the information-theoretic claims.

Everything here enumerates small discrete joints exactly (supports up to
~16 states per variable), in nats.  Three randomized sweeps check:

* the Bayes-error bound ``P_e <= 1 - exp(-H(T) + I(Z, T))``;
* the mutual-information decomposition behind the pre-training comparison,
  ``I(z_occ, T) - I(z_mae, T) = I(O, T | z_mae) - I(O, T | z_occ)`` when
  both representations are deterministic functions of the labels O;
* the risk ordering under garbling: coarsening a representation can only
  raise both the Bayes classification error and the minimum expected
  squared regression error ``E[Var(T | Z)]``.

No estimators are involved; the claims are inequalities/identities and are
verified to machine precision.

Each sweep draws its joints in bulk, a chunk at a time, and computes each
support shape's stack, a ``(K, a, b)`` array, at once (at most 49 shapes a
chunk; see :func:`_sweep_rows`).  Every sum is numpy's own reduction over
the same terms in the same order as on one joint, so a stack gives each
joint the bits it would get alone:

* a sum along the last axis of a C-contiguous stack runs, on each row, the
  pairwise loop that ``.sum()`` runs on that row alone;
* a sum over a middle axis adds whole rows in order, so the zero rows that
  pad a coarser map's joint up to the stack's state count add +0.0 (the
  sweeps' joints have at least two T states: a one-column sum is pairwise);
* a masked sum (``p[p > 0]``) has a term count that varies by joint, and
  numpy's pairwise order depends on that count (a plain loop below 8 terms,
  eight accumulators from 8 on).  :func:`_row_sums` therefore groups the
  rows by term count and sums each ``(rows, count)`` block along its rows;
* for the same reason the garbled Bayes error, a last-axis sum over the
  garbled states, is computed per group of joints with one state count:
  padded zero states would lengthen the sum and change its order.

One product stays per row: ``E[Var(T | Z)]`` takes each conditional mean
and variance as a BLAS dot of one row (:func:`_sq_risk`).  A stacked form
(``(cond * t).sum(-1)``, ``matmul`` or ``einsum``) adds the same terms in
another order and changed over a third of the values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sweep_bayes_bound", "sweep_lemma1", "sweep_risk_ordering"]

#: mass tolerance of a joint, and the slack every exact check allows
_TOL = 1e-12
#: the sweeps draw each variable's support size from 2.._MAX_SUPPORT and
#: zero each joint entry with probability _SPARSITY
_MAX_SUPPORT = 8
_SPARSITY = 0.2
#: the sweeps draw, then compute, this many joints at a time; it also fixes
#: the draw order, so which joints a seed draws
_CHUNK = 2048


def _check_joints(flat: np.ndarray) -> None:
    """Raise ValueError unless each row of `flat` is a probability vector."""
    if not flat.min(initial=0.0) >= 0:  # NaN fails too; +inf fails the sum
        raise ValueError("joint has negative or NaN mass")
    total = flat.sum(axis=1)
    off = np.abs(total - 1.0) > _TOL
    if off.any():
        raise ValueError(f"joint mass {total[off][0]} != 1 within {_TOL}")


# The stack functions below trust their input: the sweeps validate each
# joint once, and every array derived from a joint is a joint by
# construction.

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
    """Minimum classification error of each joint: 1 - sum_z max_t p(z, t)."""
    return 1.0 - p.max(axis=2).sum(axis=1)


def _bound_rows(p: np.ndarray) -> dict:
    """Both sides of the Bayes-error bound, and the slack, of each joint."""
    h_t = _entropies(p.sum(axis=1))
    mi = _mis(p)
    pe = _bayes(p)
    bound = 1.0 - np.exp(-h_t + mi)
    slack = bound - pe
    return {"h_t": h_t, "mi": mi, "bayes_error": pe, "bound_value": bound,
            "slack": slack, "satisfied": slack >= -_TOL}


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


def _lemma1_rows(p: np.ndarray, f_occ: np.ndarray, f_mae: np.ndarray) -> dict:
    """Both sides of the decomposition of each joint over (O, T), with the
    deterministic representations Z = f_occ(O) and Z = f_mae(O)."""
    occ = _map_slabs(p, f_occ, int(f_occ.max()) + 1)
    mae = _map_slabs(p, f_mae, int(f_mae.max()) + 1)
    mi_occ, mi_mae = _mis(_induced(occ)), _mis(_induced(mae))
    gap_mae, gap_occ = _cmis(mae), _cmis(occ)
    lhs = mi_occ - mi_mae
    rhs = gap_mae - gap_occ
    return {"mi_occ": mi_occ, "mi_mae": mi_mae, "gap_mae": gap_mae,
            "gap_occ": gap_occ, "lhs": lhs, "rhs": rhs,
            "holds": np.abs(lhs - rhs) <= _TOL}


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


def _risk_rows(p: np.ndarray, g: np.ndarray, t_values: np.ndarray) -> dict:
    """Squared and Bayes risks of each joint over (Z, T), before and after
    the garbling Z' = g(Z); ``t_values`` are the numeric values of T."""
    sq = np.array([_sq_risk(q, t) for q, t in zip(p, t_values)])
    sq_g, bayes_g = np.empty(len(p)), np.empty(len(p))
    n_g = g.max(axis=1) + 1
    for m in np.unique(n_g):  # unpadded, see the module docstring
        rows = np.flatnonzero(n_g == m)
        garbled = _induced(_map_slabs(p[rows], g[rows], int(m)))
        sq_g[rows] = [_sq_risk(q, t) for q, t in zip(garbled, t_values[rows])]
        bayes_g[rows] = _bayes(garbled)
    bayes = _bayes(p)
    return {"sq_risk": sq, "sq_risk_garbled": sq_g, "bayes": bayes,
            "bayes_garbled": bayes_g,
            "holds": (sq <= sq_g + _TOL) & (bayes <= bayes_g + _TOL)}


# -- randomized verification sweeps -------------------------------------------

def _draw_masses(rng: np.random.Generator, k: int, a: int,
                 b: int) -> np.ndarray:
    """Masses of `k` joints of `a` x `b` states: exponentials, about a fifth
    of them zeroed; an all-zero joint gets mass 1 at one drawn entry."""
    mass = rng.exponential(size=(k, a, b))
    mass *= rng.random((k, a, b)) >= _SPARSITY
    empty = np.flatnonzero(~mass.any(axis=(1, 2)))
    mass.reshape(k, -1)[empty, rng.integers(a * b, size=len(empty))] = 1.0
    return mass


def _draw_maps(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """`k` maps of `n` states, each into 0..m-1 with its own m from 1..n."""
    return rng.integers(0, rng.integers(1, n + 1, size=(k, 1)), size=(k, n))


def _sweep_rows(n: int, seed: int, draw, rows) -> dict:
    """The fields of `n` >= 1 random joints, one array each, in joint order.

    Each chunk of _CHUNK joints draws its support shapes in one call; then,
    for each shape in ascending order, the masses of that shape's joints
    and ``draw(rng, k, a, b)``, the maps or values that go with them.
    ``rows(p, *maps)`` computes the fields of that stack.  _CHUNK bounds
    the memory of a sweep, and it also fixes which joints a seed draws.
    """
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for start in range(0, n, _CHUNK):
        shapes = rng.integers(2, _MAX_SUPPORT + 1,
                              size=(min(_CHUNK, n - start), 2))
        for a, b in np.unique(shapes, axis=0):
            at = start + np.flatnonzero((shapes == (a, b)).all(axis=1))
            mass = _draw_masses(rng, len(at), a, b)
            maps = draw(rng, len(at), a, b)
            p = mass / mass.reshape(len(at), -1).sum(axis=1)[:, None, None]
            _check_joints(p.reshape(len(at), -1))
            for name, v in rows(p, *maps).items():
                out.setdefault(name, np.empty(n, v.dtype))[at] = v
    return out


def sweep_bayes_bound(n: int, seed: int) -> dict:
    """Check the Bayes bound on `n` random joints; reports the worst slack."""
    r = _sweep_rows(n, seed, lambda rng, k, a, b: (), _bound_rows)
    return {"sweeps": n, "min_slack": float(r["slack"].min()),
            "violations": int(np.count_nonzero(~r["satisfied"]))}


def sweep_lemma1(n: int, seed: int) -> dict:
    """Check the decomposition identity on random joints and random maps."""
    r = _sweep_rows(n, seed, lambda rng, k, a, b: (_draw_maps(rng, k, a),
                                                   _draw_maps(rng, k, a)),
                    _lemma1_rows)
    return {"sweeps": n,
            "max_identity_gap": float(np.abs(r["lhs"] - r["rhs"]).max()),
            "violations": int(np.count_nonzero(~r["holds"]))}


def sweep_risk_ordering(n: int, seed: int) -> dict:
    """Check both risk orderings on random joints and random garblings."""
    r = _sweep_rows(n, seed, lambda rng, k, a, b: (_draw_maps(rng, k, a),
                                                   rng.normal(size=(k, b))),
                    _risk_rows)
    sq_margin = r["sq_risk_garbled"] - r["sq_risk"]
    return {"sweeps": n, "min_sq_margin": float(sq_margin.min()),
            "min_bayes_margin": float((r["bayes_garbled"] - r["bayes"]).min()),
            "violations": int(np.count_nonzero(~r["holds"]))}
