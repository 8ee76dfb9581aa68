"""Exact theory checks against independent oracles.

The oracles below are plain loops over the joint's entries with
``math.log``; none of them calls into :mod:`occspot.theory`.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from occspot import theory
from occspot.cli import main
from occspot.theory import (DiscreteJoint, bayes_error, check_bayes_bound,
                            conditional_mi, entropy, lemma1_decomposition,
                            mutual_information, random_joint, risk_ordering)


# -- oracles -----------------------------------------------------------------

def h_oracle(p) -> float:
    return -sum(x * math.log(x) for x in np.ravel(p) if x > 0)


def mi_oracle(p) -> float:
    """I(Z, T) = sum p(z, t) ln(p(z, t) / (p(z) p(t)))."""
    n_z, n_t = len(p), len(p[0])
    pz = [sum(p[z][t] for t in range(n_t)) for z in range(n_z)]
    pt = [sum(p[z][t] for z in range(n_z)) for t in range(n_t)]
    return sum(p[z][t] * math.log(p[z][t] / (pz[z] * pt[t]))
               for z in range(n_z) for t in range(n_t) if p[z][t] > 0)


def bayes_oracle(p) -> float:
    """Smallest error over every deterministic classifier Z -> T."""
    n_z, n_t = len(p), len(p[0])
    return min(1.0 - sum(p[z][rule[z]] for z in range(n_z))
               for rule in itertools.product(range(n_t), repeat=n_z))


def induced(p, f, n_z):
    """Joint (Z, T) of Z = f(O), as nested lists."""
    out = [[0.0] * len(p[0]) for _ in range(n_z)]
    for o, row in enumerate(p):
        for t, x in enumerate(row):
            out[f[o]][t] += x
    return out


def cmi_given_map_oracle(p, f, n_z) -> float:
    """I(O, T | Z) with Z = f(O): sum_z p(z) I(O, T | Z = z)."""
    total = 0.0
    for z in range(n_z):
        rows = [row for o, row in enumerate(p) if f[o] == z]
        pz = sum(map(sum, rows))
        if pz > 0:
            total += pz * mi_oracle([[x / pz for x in row] for row in rows])
    return total


# a hand-built joint over (O, T): 4 label states, 3 task states
P_OT = [[0.10, 0.05, 0.05],
        [0.02, 0.20, 0.03],
        [0.00, 0.05, 0.20],
        [0.15, 0.00, 0.15]]


class TestEntropyAndMI:
    def test_entropy_closed_form(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(math.log(8), abs=1e-14)
        assert entropy([1.0, 0.0, 0.0]) == 0.0
        assert entropy([0.2, 0.3, 0.5]) == pytest.approx(
            h_oracle([0.2, 0.3, 0.5]), abs=1e-15)

    def test_independent_joint_has_zero_mi(self):
        pz, pt = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.1, 0.1, 0.2])
        assert mutual_information(np.outer(pz, pt)) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_joint_mi_equals_entropy(self):
        d = np.array([0.1, 0.2, 0.3, 0.4])
        assert mutual_information(np.diag(d)) == pytest.approx(
            h_oracle(d), abs=1e-14)

    def test_mi_matches_oracle(self):
        assert mutual_information(P_OT) == pytest.approx(
            mi_oracle(P_OT), abs=1e-14)

    def test_conditional_mi_of_a_constant_z_is_plain_mi(self):
        p3 = np.asarray(P_OT)[:, :, None]
        assert conditional_mi(p3) == pytest.approx(mi_oracle(P_OT), abs=1e-14)

    def test_conditional_mi_given_o_itself_is_zero(self):
        p = np.asarray(P_OT)
        p3 = np.zeros((4, 3, 4))
        for o in range(4):
            p3[o, :, o] = p[o]
        assert conditional_mi(p3) == pytest.approx(0.0, abs=1e-15)


class TestBayes:
    @pytest.mark.parametrize("seed", range(6))
    def test_bayes_error_by_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        mass = rng.exponential(size=(int(rng.integers(2, 5)),
                                     int(rng.integers(2, 5))))
        p = mass / mass.sum()
        assert bayes_error(p) == pytest.approx(bayes_oracle(p.tolist()), abs=1e-15)

    def test_bound_report_matches_oracles(self):
        rep = check_bayes_bound(P_OT)
        pt = np.asarray(P_OT).sum(axis=0)
        bound = 1.0 - math.exp(-h_oracle(pt) + mi_oracle(P_OT))
        assert rep.h_t == pytest.approx(h_oracle(pt), abs=1e-14)
        assert rep.mi == pytest.approx(mi_oracle(P_OT), abs=1e-14)
        assert rep.bayes_error == pytest.approx(bayes_oracle(P_OT), abs=1e-15)
        assert rep.bound_value == pytest.approx(bound, abs=1e-14)
        assert rep.satisfied and rep.slack >= 0.0

    def test_deterministic_task_has_zero_error(self):
        rep = check_bayes_bound(np.diag([0.25, 0.25, 0.5]))
        assert rep.bayes_error == 0.0
        assert rep.bound_value == pytest.approx(0.0, abs=1e-15)


class TestLemma1:
    F_OCC = [0, 1, 2, 2]   # keeps O states 0 and 1 apart
    F_MAE = [0, 0, 1, 1]   # a coarser representation

    def test_hand_built_joint_and_maps(self):
        rep = lemma1_decomposition(P_OT, self.F_OCC, self.F_MAE)
        mi_occ = mi_oracle(induced(P_OT, self.F_OCC, 3))
        mi_mae = mi_oracle(induced(P_OT, self.F_MAE, 2))
        gap_occ = cmi_given_map_oracle(P_OT, self.F_OCC, 3)
        gap_mae = cmi_given_map_oracle(P_OT, self.F_MAE, 2)
        assert rep.mi_occ == pytest.approx(mi_occ, abs=1e-14)
        assert rep.mi_mae == pytest.approx(mi_mae, abs=1e-14)
        assert rep.gap_occ == pytest.approx(gap_occ, abs=1e-14)
        assert rep.gap_mae == pytest.approx(gap_mae, abs=1e-14)
        assert rep.lhs == pytest.approx(mi_occ - mi_mae, abs=1e-14)
        assert rep.rhs == pytest.approx(gap_mae - gap_occ, abs=1e-14)
        assert rep.holds

    def test_identity_map_closes_the_gap(self):
        rep = lemma1_decomposition(P_OT, [0, 1, 2, 3], self.F_MAE)
        assert rep.gap_occ == pytest.approx(0.0, abs=1e-15)
        assert rep.mi_occ == pytest.approx(mi_oracle(P_OT), abs=1e-14)
        assert rep.holds

    @pytest.mark.parametrize("f_occ", [[0, 1, 2], [0, -1, 1, 1]])
    def test_bad_maps_rejected(self, f_occ):
        with pytest.raises(ValueError, match="f_occ"):
            lemma1_decomposition(P_OT, f_occ, self.F_MAE)


class TestRiskOrdering:
    T_VALUES = [-1.0, 0.5, 2.0]

    def test_identity_garbling_changes_nothing(self):
        rep = risk_ordering(P_OT, self.T_VALUES, [0, 1, 2, 3])
        assert rep.sq_risk_garbled == rep.sq_risk
        assert rep.bayes_garbled == rep.bayes
        assert rep.holds

    def test_constant_garbling_gives_prior_risks(self):
        rep = risk_ordering(P_OT, self.T_VALUES, [0, 0, 0, 0])
        pt = np.asarray(P_OT).sum(axis=0)
        mean = float(pt @ self.T_VALUES)
        var = sum(w * (t - mean) ** 2 for w, t in zip(pt, self.T_VALUES))
        assert rep.sq_risk_garbled == pytest.approx(var, abs=1e-14)
        assert rep.bayes_garbled == pytest.approx(1.0 - pt.max(), abs=1e-15)
        assert rep.bayes == pytest.approx(bayes_oracle(P_OT), abs=1e-15)
        assert rep.sq_risk <= rep.sq_risk_garbled and rep.holds

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="t_values"):
            risk_ordering(P_OT, [0.0, 1.0], [0, 1, 2, 3])
        with pytest.raises(ValueError, match="t_values"):
            risk_ordering(P_OT, [0.0, np.nan, 1.0], [0, 1, 2, 3])
        with pytest.raises(ValueError, match="g"):
            risk_ordering(P_OT, self.T_VALUES, [0, 1])


MALFORMED = {
    "negative": np.array([[0.6, -0.1], [0.3, 0.2]]),
    "mass_below_one": np.array([[0.25, 0.25], [0.25, 0.2]]),
    "mass_above_one": np.array([[0.25, 0.25], [0.25, 0.25 + 1e-9]]),
    "one_d": np.array([0.5, 0.5]),
    "four_d": np.full((2, 2, 2, 2), 1 / 16),
}

TWO_WAY = {
    "mutual_information": mutual_information,
    "bayes_error": bayes_error,
    "check_bayes_bound": check_bayes_bound,
    "lemma1_decomposition": lambda p: lemma1_decomposition(p, [0, 1], [0, 0]),
    "risk_ordering": lambda p: risk_ordering(p, [0.0, 1.0], [0, 0]),
}


class TestMalformedJoints:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_discrete_joint_rejects(self, case):
        with pytest.raises(ValueError):
            DiscreteJoint(MALFORMED[case])

    @pytest.mark.parametrize("fn", sorted(TWO_WAY))
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_two_way_functions_reject(self, fn, case):
        with pytest.raises(ValueError):
            TWO_WAY[fn](MALFORMED[case])

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_conditional_mi_rejects(self, case):
        with pytest.raises(ValueError):
            conditional_mi(MALFORMED[case])

    @pytest.mark.parametrize("fn", sorted(TWO_WAY))
    def test_three_way_joint_is_not_two_way(self, fn):
        with pytest.raises(ValueError):
            TWO_WAY[fn](np.full((2, 2, 2), 1 / 8))

    def test_two_way_joint_is_not_three_way(self):
        with pytest.raises(ValueError):
            conditional_mi(np.full((2, 2), 1 / 4))


class TestSweeps:
    def test_random_joint_is_a_valid_joint(self):
        rng = np.random.default_rng(0)
        for shape in [(2, 2), (3, 8), (8, 5)]:
            j = random_joint(rng, shape)
            assert isinstance(j, DiscreteJoint) and j.shape == shape
            assert abs(j.p.sum() - 1.0) <= 1e-12 and (j.p >= 0).all()

    @pytest.mark.parametrize("sweep", [theory.sweep_bayes_bound,
                                       theory.sweep_lemma1,
                                       theory.sweep_risk_ordering])
    def test_no_violations_and_deterministic(self, sweep):
        a, b = sweep(40, seed=3), sweep(40, seed=3)
        assert a == b
        assert a["sweeps"] == 40 and a["violations"] == 0

    # sha256 of the exact `theory-check` stdout: the sweeps, their seeds and
    # the report's float formatting are all pinned
    @pytest.mark.parametrize("seed, sweeps, digest", [
        (0, 1, "d7b72ad3fcfd786aa27aed80e57ef43933b145445e376ffe21eb10b2a1faef27"),
        (7, 9, "05ea620a98fd99ac8c8598fdafe6d3084b047ddb97ce6286ae1f756df3864d5c"),
        (1, 200, "7920b2a707087933a52304005b9380c2729060fedc402b89b500fa6230477627"),
        (101, 200, "feb8614662f9894dc97f0c60ff936b0f869b1241584f8aaf16759e30b24b82d3"),
    ])
    def test_theory_check_stdout_pinned(self, seed, sweeps, digest, capsys):
        assert main(["theory-check", "--seed", str(seed),
                     "--sweeps", str(sweeps)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
