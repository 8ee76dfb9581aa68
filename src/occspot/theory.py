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
chunk; see :func:`_sweep_rows`).  Every kernel is a whole-row numpy
reduction over the stack: a zero term (``0 ln 0``, an empty conditional)
stays in its sum as +0.0 instead of being masked out, and a map of O pads
to as many states as O has.  A joint's terms, and so its bits, then depend
only on that joint, never on the others in its stack.
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
# joint once, every array derived from a joint is a joint by construction,
# and every stack is C-contiguous, so each row sums as it would alone.

def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of `p` (K, n), with 0 ln 0 = 0."""
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(-1)


def _mis(p: np.ndarray) -> np.ndarray:
    """I(Z, T) of each joint in the stack `p` (K, n_z, n_t)."""
    outer = p.sum(axis=2)[:, :, None] * p.sum(axis=1)[:, None, :]
    ratio = np.divide(p, outer, out=np.ones_like(p), where=p > 0)
    return (p * np.log(ratio)).sum(axis=(1, 2))


def _cmis(slabs: np.ndarray) -> np.ndarray:
    """I(O, T | Z) of each joint; ``slabs[k, z]`` is p(o, t, z) of joint k."""
    k, n_z = slabs.shape[:2]
    pz = slabs.reshape(k, n_z, -1).sum(axis=2)
    cond = np.divide(slabs, pz[:, :, None, None], out=np.zeros(slabs.shape),
                     where=pz[:, :, None, None] > 0)
    mi = _mis(cond.reshape(k * n_z, *slabs.shape[2:])).reshape(k, n_z)
    return (pz * mi).sum(axis=1)


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


def _map_slabs(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Slabs p(o, t, z) = p(o, t) 1[z = f(o)] of Z = f(O), z first: f maps
    O into its own states, so there is one slab per O state."""
    hit = f[:, None, :, None] == np.arange(p.shape[1])[None, :, None, None]
    return np.where(hit, p[:, None], 0.0)


def _induced(slabs: np.ndarray) -> np.ndarray:
    """Joints p(z, t) of the slabs: the O states of each z added in order,
    as a running sum (never numpy's pairwise order)."""
    return slabs.cumsum(axis=2)[:, :, -1].copy()


def _lemma1_rows(p: np.ndarray, f_occ: np.ndarray, f_mae: np.ndarray) -> dict:
    """Both sides of the decomposition of each joint over (O, T), with the
    deterministic representations Z = f_occ(O) and Z = f_mae(O)."""
    occ = _map_slabs(p, f_occ)
    mae = _map_slabs(p, f_mae)
    mi_occ, mi_mae = _mis(_induced(occ)), _mis(_induced(mae))
    gap_mae, gap_occ = _cmis(mae), _cmis(occ)
    lhs = mi_occ - mi_mae
    rhs = gap_mae - gap_occ
    return {"mi_occ": mi_occ, "mi_mae": mi_mae, "gap_mae": gap_mae,
            "gap_occ": gap_occ, "lhs": lhs, "rhs": rhs,
            "holds": np.abs(lhs - rhs) <= _TOL}


def _sq_risks(p: np.ndarray, t_values: np.ndarray) -> np.ndarray:
    """E[Var(T | Z)] of each joint over (Z, T), T valued ``t_values[k]``."""
    pz = p.sum(axis=2)
    cond = np.divide(p, pz[:, :, None], out=np.zeros_like(p),
                     where=pz[:, :, None] > 0)
    t = t_values[:, None, :]
    mean = (cond * t).sum(-1)
    var = (cond * (t - mean[:, :, None]) ** 2).sum(-1)
    return (pz * var).sum(-1)


def _risk_rows(p: np.ndarray, g: np.ndarray, t_values: np.ndarray) -> dict:
    """Squared and Bayes risks of each joint over (Z, T), before and after
    the garbling Z' = g(Z); ``t_values`` are the numeric values of T."""
    garbled = _induced(_map_slabs(p, g))
    sq, sq_g = _sq_risks(p, t_values), _sq_risks(garbled, t_values)
    bayes, bayes_g = _bayes(p), _bayes(garbled)
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
