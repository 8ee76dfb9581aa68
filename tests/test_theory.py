"""Exact theory checks against independent oracles.

The oracles below are plain loops over the joint's entries with
``math.log``; none of them calls into :mod:`occspot.theory`.  The stacked
kernels are also held bit for bit to the per-joint ``*_reference`` loops
in :mod:`helpers`.
"""

import hashlib
import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from helpers import (bayes_error_reference, bound_reference,
                     conditional_mi_reference, entropy_reference,
                     lemma1_reference, mutual_information_reference,
                     risk_reference, sweep_bayes_bound_reference,
                     sweep_lemma1_reference, sweep_risk_ordering_reference)

from occspot import theory
from occspot.cli import main
from occspot.theory import (BoundReport, DiscreteJoint, Lemma1Report,
                            RiskOrderingReport, bayes_error, check_bayes_bound,
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

    def test_negative_garbling_index_rejected(self):
        # -1 would wrap to the last state, as [1, 1] does for two states
        with pytest.raises(ValueError, match="g must use non-negative"):
            risk_ordering([[0.25, 0.25], [0.25, 0.25]], [0.0, 1.0], [-1, 1])

    def test_risks_are_plain_floats(self):
        rep = risk_ordering(P_OT, self.T_VALUES, [0, 0, 1, 1])
        assert type(rep.sq_risk) is float
        assert type(rep.sq_risk_garbled) is float


MALFORMED = {
    "negative": np.array([[0.6, -0.1], [0.3, 0.2]]),
    "mass_below_one": np.array([[0.25, 0.25], [0.25, 0.2]]),
    "mass_above_one": np.array([[0.25, 0.25], [0.25, 0.25 + 1e-9]]),
    "one_d": np.array([0.5, 0.5]),
    "four_d": np.full((2, 2, 2, 2), 1 / 16),
    "nan": np.array([[np.nan, 0.5], [0.25, 0.25]]),
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

    @pytest.mark.parametrize("p", [[np.nan, 0.5], [np.inf, 0.5], [-0.5, 1.5]])
    def test_entropy_rejects(self, p):
        with pytest.raises(ValueError):
            entropy(p)


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


# -- stacked kernels against the per-joint loops -----------------------------

def random_inputs(seed: int, n: int, max_support: int = 10):
    """`n` random joints of every shape up to `max_support` a side (one-state
    variables too), a fifth of their entries zero, with random maps."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b = (int(x) for x in rng.integers(1, max_support + 1, size=2))
        mass = rng.exponential(size=(a, b)) * (rng.random((a, b)) >= 0.2)
        if mass.sum() == 0:
            mass.flat[0] = 1.0
        maps = [rng.integers(0, int(rng.integers(1, a + 3)), size=a)
                for _ in range(3)]
        yield mass / mass.sum(), maps, rng.normal(size=b)


def assert_fields_equal(report, ref: dict):
    for name, want in ref.items():
        got = getattr(report, name)
        assert type(got) is (bool if isinstance(want, bool) else float), name
        assert got == want, name


class TestSingleJointBitForBit:
    """Each public function is the stacked kernel on a stack of one; it
    returns the per-joint code's bits, as plain floats and bools."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_two_way_functions(self, seed):
        for p, (f_occ, f_mae, g), t_values in random_inputs(seed, 300):
            assert_fields_equal(check_bayes_bound(p), bound_reference(p))
            assert_fields_equal(lemma1_decomposition(p, f_occ, f_mae),
                                lemma1_reference(p, f_occ, f_mae))
            assert_fields_equal(risk_ordering(p, t_values, g),
                                risk_reference(p, t_values, g))
            assert mutual_information(p) == mutual_information_reference(p)
            assert bayes_error(p) == bayes_error_reference(p)
            assert entropy(p) == entropy_reference(p)

    @pytest.mark.parametrize("seed", [23, 24])
    def test_conditional_mi(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            shape = tuple(int(x) for x in rng.integers(1, 9, size=3))
            mass = rng.exponential(size=shape) * (rng.random(shape) >= 0.3)
            mass.flat[0] += 1.0
            p = mass / mass.sum()
            assert conditional_mi(p) == conditional_mi_reference(p)


def joined(chunks) -> dict:
    chunks = list(chunks)
    return {name: np.concatenate([c[name] for c in chunks])
            for name in chunks[0]}


def bound_rows(n, seed):
    return joined(theory._sweep_rows(n, seed, theory._draw_bound,
                                     theory._bound_rows))


def lemma1_rows(n, seed):
    return joined(theory._sweep_rows(n, seed, theory._draw_lemma1,
                                     theory._lemma1_rows))


class TestSweepsBitForBit:
    """Every per-joint value of a batched sweep equals the per-joint loop's.

    Per seed, 3,000 Bayes-bound joints (two chunks, the second partial)
    reach all 49 support shapes and every count of nonzero entries from 2
    to 48; 1,000 decomposition joints reach all shapes and the counts from
    2 to 40.  numpy's pairwise sum is a plain loop below 8 terms and eight
    accumulators from 8 on.
    """

    SEEDS = [101, 7, 2024]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bayes_bound_rows(self, seed):
        n = 3000
        assert n % theory._CHUNK and n > theory._CHUNK
        summary, ref = sweep_bayes_bound_reference(n, seed)
        got = bound_rows(n, seed)
        assert set(got) == {f.name for f in fields(BoundReport)}
        for name in got:
            assert np.array_equal(got[name], ref[name]), name
        assert theory.sweep_bayes_bound(n, seed) == summary
        assert len({tuple(s) for s in ref["shape"]}) == 49
        assert set(range(2, 49)) <= set(ref["nnz"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lemma1_rows(self, seed):
        n = 1000
        summary, ref = sweep_lemma1_reference(n, seed)
        got = lemma1_rows(n, seed)
        assert set(got) == {f.name for f in fields(Lemma1Report)}
        for name in got:
            assert np.array_equal(got[name], ref[name]), name
        assert theory.sweep_lemma1(n, seed) == summary
        assert len({tuple(s) for s in ref["shape"]}) == 49
        assert set(range(2, 41)) <= set(ref["nnz"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_risk_ordering(self, seed):
        summary, ref = sweep_risk_ordering_reference(300, seed)
        assert theory.sweep_risk_ordering(300, seed) == summary
        for row in ref:
            rep = risk_ordering(row["p"], row["t_values"], row["g"])
            assert_fields_equal(rep, {f.name: row[f.name]
                                      for f in fields(RiskOrderingReport)})

    @pytest.mark.parametrize("sweep, reference", [
        (theory.sweep_bayes_bound, sweep_bayes_bound_reference),
        (theory.sweep_lemma1, sweep_lemma1_reference),
        (theory.sweep_risk_ordering, sweep_risk_ordering_reference)])
    def test_one_draw(self, sweep, reference):
        for seed in range(20):
            assert sweep(1, seed) == reference(1, seed)[0]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_changes_nothing(self, chunk, monkeypatch):
        bound, lemma1 = bound_rows(301, 5), lemma1_rows(150, 6)
        monkeypatch.setattr(theory, "_CHUNK", chunk)
        for want, got in ((bound, bound_rows(301, 5)),
                          (lemma1, lemma1_rows(150, 6))):
            for name in want:
                assert np.array_equal(got[name], want[name]), name

    def test_a_bad_stack_is_rejected(self):
        for bad_row in ([np.nan, 1.0], [np.inf, 0.0], [-0.5, 1.5],
                        [0.5, 0.5 + 1e-9]):
            flat = [[0.5, 0.5], bad_row, [0.25, 0.75]]
            with pytest.raises(ValueError):
                theory._check_joints(np.array(flat))


class TestRowSums:
    """The ragged row sums are numpy's own ``.sum()`` of each row alone."""

    def test_every_term_count(self):
        rng = np.random.default_rng(0)
        counts = rng.permutation(np.repeat(np.arange(70), 5))
        rows = [rng.exponential(size=m) * 10.0 ** rng.integers(-9, 9, size=m)
                for m in counts]
        got = theory._row_sums(np.concatenate(rows), counts)
        assert np.array_equal(got, [r.sum() for r in rows])
