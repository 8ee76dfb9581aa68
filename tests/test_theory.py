"""Exact theory checks against independent oracles.

The oracles below are plain loops over the joint's entries with
``math.log``; none of them calls into :mod:`occspot.theory`.  They check
the stack kernels on stacks of one joint.  The kernels are also held bit
for bit to the per-joint ``*_reference`` functions in :mod:`helpers`, which
keep every zero term and pad each map to the O state count, as the
kernels do.
"""

import hashlib
import itertools
import json
import math

import helpers
import numpy as np
import pytest
from helpers import (bayes_error_reference, bound_reference,
                     conditional_mi_reference, entropy_reference,
                     lemma1_reference, mutual_information_reference,
                     risk_reference, sweep_bayes_bound_reference,
                     sweep_lemma1_reference, sweep_risk_ordering_reference)

from occspot import cli, theory
from occspot.cli import main


# -- the stack kernels on stacks of one --------------------------------------

def stack(p) -> np.ndarray:
    return np.asarray(p, dtype=np.float64)[None]


def one(rows: dict) -> dict:
    """The fields of a stack of one joint, as scalars."""
    return {name: v[0].item() for name, v in rows.items()}


def entropy(p) -> float:
    return theory._entropies(stack(p).reshape(1, -1))[0]


def mutual_information(p) -> float:
    return theory._mis(stack(p))[0]


def conditional_mi(p) -> float:
    """I(O, T | Z) of a joint over (O, T, Z), as C-contiguous slabs."""
    return theory._cmis(np.ascontiguousarray(np.moveaxis(stack(p), 3, 1)))[0]


def bayes_error(p) -> float:
    return theory._bayes(stack(p))[0]


def check_bayes_bound(p) -> dict:
    return one(theory._bound_rows(stack(p)))


def lemma1_decomposition(p, f_occ, f_mae) -> dict:
    return one(theory._lemma1_rows(stack(p), np.array([f_occ]),
                                   np.array([f_mae])))


def risk_ordering(p, t_values, g) -> dict:
    return one(theory._risk_rows(stack(p), np.array([g]), stack(t_values)))


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
        assert rep["h_t"] == pytest.approx(h_oracle(pt), abs=1e-14)
        assert rep["mi"] == pytest.approx(mi_oracle(P_OT), abs=1e-14)
        assert rep["bayes_error"] == pytest.approx(bayes_oracle(P_OT),
                                                   abs=1e-15)
        assert rep["bound_value"] == pytest.approx(bound, abs=1e-14)
        assert rep["satisfied"] and rep["slack"] >= 0.0

    def test_deterministic_task_has_zero_error(self):
        rep = check_bayes_bound(np.diag([0.25, 0.25, 0.5]))
        assert rep["bayes_error"] == 0.0
        assert rep["bound_value"] == pytest.approx(0.0, abs=1e-15)


class TestLemma1:
    F_OCC = [0, 1, 2, 2]   # keeps O states 0 and 1 apart
    F_MAE = [0, 0, 1, 1]   # a coarser representation

    def test_hand_built_joint_and_maps(self):
        rep = lemma1_decomposition(P_OT, self.F_OCC, self.F_MAE)
        mi_occ = mi_oracle(induced(P_OT, self.F_OCC, 3))
        mi_mae = mi_oracle(induced(P_OT, self.F_MAE, 2))
        gap_occ = cmi_given_map_oracle(P_OT, self.F_OCC, 3)
        gap_mae = cmi_given_map_oracle(P_OT, self.F_MAE, 2)
        assert rep["mi_occ"] == pytest.approx(mi_occ, abs=1e-14)
        assert rep["mi_mae"] == pytest.approx(mi_mae, abs=1e-14)
        assert rep["gap_occ"] == pytest.approx(gap_occ, abs=1e-14)
        assert rep["gap_mae"] == pytest.approx(gap_mae, abs=1e-14)
        assert rep["lhs"] == pytest.approx(mi_occ - mi_mae, abs=1e-14)
        assert rep["rhs"] == pytest.approx(gap_mae - gap_occ, abs=1e-14)
        assert rep["holds"]

    def test_identity_map_closes_the_gap(self):
        rep = lemma1_decomposition(P_OT, [0, 1, 2, 3], self.F_MAE)
        assert rep["gap_occ"] == pytest.approx(0.0, abs=1e-15)
        assert rep["mi_occ"] == pytest.approx(mi_oracle(P_OT), abs=1e-14)
        assert rep["holds"]


class TestRiskOrdering:
    T_VALUES = [-1.0, 0.5, 2.0]

    def test_identity_garbling_changes_nothing(self):
        rep = risk_ordering(P_OT, self.T_VALUES, [0, 1, 2, 3])
        assert rep["sq_risk_garbled"] == rep["sq_risk"]
        assert rep["bayes_garbled"] == rep["bayes"]
        assert rep["holds"]

    def test_constant_garbling_gives_prior_risks(self):
        rep = risk_ordering(P_OT, self.T_VALUES, [0, 0, 0, 0])
        pt = np.asarray(P_OT).sum(axis=0)
        mean = float(pt @ self.T_VALUES)
        var = sum(w * (t - mean) ** 2 for w, t in zip(pt, self.T_VALUES))
        assert rep["sq_risk_garbled"] == pytest.approx(var, abs=1e-14)
        assert rep["bayes_garbled"] == pytest.approx(1.0 - pt.max(), abs=1e-15)
        assert rep["bayes"] == pytest.approx(bayes_oracle(P_OT), abs=1e-15)
        assert rep["sq_risk"] <= rep["sq_risk_garbled"] and rep["holds"]

    def test_risks_are_plain_floats(self):
        # `theory-check` dumps the sweep reports as JSON
        rep = theory.sweep_risk_ordering(5, seed=0)
        for name in ("min_sq_margin", "min_bayes_margin"):
            assert type(rep[name]) is float
        assert type(rep["sweeps"]) is int and type(rep["violations"]) is int


class TestSweeps:
    def test_random_joint_is_a_valid_joint(self):
        # the sweeps' bulk draws: masses of every support shape, never all
        # zero, and maps of O into its own states, each with its own image
        # count from 1 to the state count
        rng = np.random.default_rng(0)
        sides = range(2, theory._MAX_SUPPORT + 1)
        for a, b in itertools.product(sides, sides):
            mass = theory._draw_masses(rng, 40, a, b)
            assert mass.shape == (40, a, b)
            assert (mass >= 0).all() and (mass.sum(axis=(1, 2)) > 0).all()
            p = mass / mass.sum(axis=(1, 2))[:, None, None]
            assert np.abs(p.sum(axis=(1, 2)) - 1.0).max() <= 1e-12
            f = theory._draw_maps(rng, 200, a)
            assert f.shape == (200, a) and f.min() >= 0
            assert set(f.max(axis=1) + 1) == set(range(1, a + 1))

    def test_all_zero_joints_get_one_drawn_entry(self, monkeypatch):
        # with every entry zeroed, each joint is a point mass at a drawn
        # entry, as drawn one joint at a time, and no check fails on it
        monkeypatch.setattr(theory, "_SPARSITY", 1.0)
        monkeypatch.setattr(helpers, "_SPARSITY", 1.0)
        rng = np.random.default_rng(0)
        mass = theory._draw_masses(rng, 200, 3, 5).reshape(200, -1)
        assert (np.count_nonzero(mass, axis=1) == 1).all()
        assert (mass.sum(axis=1) == 1.0).all()
        assert len(set(mass.argmax(axis=1))) == 15
        for sweep, reference in SWEEPS:
            summary, got = sweep_fields(sweep, 300, 11)
            want_summary, want = reference(300, 11, theory._CHUNK)
            assert_fields_equal_bits(got, want)
            assert summary == want_summary and summary["violations"] == 0
        _, bound = sweep_fields(theory.sweep_bayes_bound, 300, 11)
        assert (bound["bayes_error"] == 0.0).all()
        assert (bound["h_t"] == 0.0).all()

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
        (0, 1, "a1b4ae23e262c973824b7193da60216be7bc1eb8b38725a5730fd191e137c692"),
        (7, 9, "a19449a2190a34b3f72b841445ee450cf14a920c43e1382904a8a1720ba69cf1"),
        (1, 200, "df8ee0f84ae076a2a3001362dce597b70672dfef9697d437f8eaa0a97cb200a1"),
        (101, 200, "eeadcf9ed26e512051c9dcec35c7208c3569877731aa1fe8513f5654ca4b4de7"),
        # the benchmark's own call
        (101, 20000, "e88ef6f4ea5fd0dbd50472fe42d967ba7474df379be249e72e32ec832d9349a2"),
    ])
    def test_theory_check_stdout_pinned(self, seed, sweeps, digest, capsys):
        assert main(["theory-check", "--seed", str(seed),
                     "--sweeps", str(sweeps)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_violation_exits_4_after_the_full_report(self, monkeypatch,
                                                        capsys):
        broken = {"sweeps": 1, "max_identity_gap": 1.0, "violations": 1}
        monkeypatch.setattr(theory, "sweep_lemma1", lambda n, seed: broken)
        assert main(["theory-check", "--sweeps", "20"]) == cli.EXIT_NUMERIC
        report = json.loads(capsys.readouterr().out)
        assert report["lemma1"] == broken
        assert report["bayes_bound"]["sweeps"] == 20
        assert report["risk_ordering"]["sweeps"] == 2
        assert report["bayes_bound"]["violations"] == 0
        assert report["risk_ordering"]["violations"] == 0


# -- stacked kernels against the per-joint loops -----------------------------

def random_inputs(seed: int, n: int, max_support: int = 10):
    """`n` random joints of every shape up to `max_support` a side (one-state
    variables too), a fifth of their entries zero, with random maps of O
    into its own states."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, b = (int(x) for x in rng.integers(1, max_support + 1, size=2))
        mass = rng.exponential(size=(a, b)) * (rng.random((a, b)) >= 0.2)
        if mass.sum() == 0:
            mass.flat[0] = 1.0
        maps = [rng.integers(0, int(rng.integers(1, a + 1)), size=a)
                for _ in range(3)]
        yield mass / mass.sum(), maps, rng.normal(size=b)


def assert_fields_equal(report: dict, ref: dict):
    assert set(report) == set(ref)
    for name, want in ref.items():
        assert report[name] == want, name


class TestSingleJointBitForBit:
    """Each stack kernel on a stack of one returns the per-joint code's
    bits, on every shape up to 10 a side, one-state variables included."""

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


SWEEPS = [(theory.sweep_bayes_bound, sweep_bayes_bound_reference),
          (theory.sweep_lemma1, sweep_lemma1_reference),
          (theory.sweep_risk_ordering, sweep_risk_ordering_reference)]


def sweep_fields(sweep, n: int, seed: int) -> tuple[dict, dict]:
    """(summary, per-joint fields) of one run of `sweep`: the fields are
    what its ``_sweep_rows`` call returned."""
    seen = []
    real = theory._sweep_rows

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theory, "_sweep_rows", recording)
        summary = sweep(n, seed)
    return summary, seen[0]


def assert_fields_equal_bits(got: dict, ref: dict):
    """Every field of a sweep equals the reference's, bit for bit."""
    assert set(got) == set(ref) - {"shape", "nnz", "n_garbled"}
    for name in got:
        assert np.array_equal(got[name], ref[name]), name


class TestSweepsBitForBit:
    """Every per-joint value of a batched sweep equals the per-joint loop's,
    on the same draws.

    Per seed, 3,000 Bayes-bound joints (two chunks, the second partial)
    reach all 49 support shapes and every count of nonzero entries from 2
    to 48; 1,000 decomposition joints reach all shapes and the counts from
    2 to 40; 3,000 risk-ordering joints reach all shapes and every garbled
    state count from 1 to 8.  A whole-row sum has from 4 to 64 terms, zeros
    included, on both sides of numpy's switch from a plain loop (below 8
    terms) to eight accumulators.
    """

    SEEDS = [101, 7, 2024]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bayes_bound_rows(self, seed):
        n = 3000
        assert n % theory._CHUNK and n > theory._CHUNK
        summary, ref = sweep_bayes_bound_reference(n, seed, theory._CHUNK)
        got_summary, got = sweep_fields(theory.sweep_bayes_bound, n, seed)
        assert_fields_equal_bits(got, ref)
        assert got_summary == summary
        assert len({tuple(s) for s in ref["shape"]}) == 49
        assert set(range(2, 49)) <= set(ref["nnz"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lemma1_rows(self, seed):
        n = 1000
        summary, ref = sweep_lemma1_reference(n, seed, theory._CHUNK)
        got_summary, got = sweep_fields(theory.sweep_lemma1, n, seed)
        assert_fields_equal_bits(got, ref)
        assert got_summary == summary
        assert len({tuple(s) for s in ref["shape"]}) == 49
        assert set(range(2, 41)) <= set(ref["nnz"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_risk_ordering(self, seed):
        n = 3000
        summary, ref = sweep_risk_ordering_reference(n, seed, theory._CHUNK)
        got_summary, got = sweep_fields(theory.sweep_risk_ordering, n, seed)
        assert_fields_equal_bits(got, ref)
        assert got_summary == summary
        assert len({tuple(s) for s in ref["shape"]}) == 49
        assert set(ref["n_garbled"]) == set(range(1, 9))

    @pytest.mark.parametrize("sweep, reference", SWEEPS)
    def test_one_draw(self, sweep, reference):
        for seed in range(20):
            assert sweep(1, seed) == reference(1, seed, theory._CHUNK)[0]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_changes_nothing(self, chunk, monkeypatch):
        # _CHUNK picks which joints a seed draws, and changes nothing in
        # the fields computed from them: at each size every field equals
        # the per-joint reference on the joints drawn at that size
        monkeypatch.setattr(theory, "_CHUNK", chunk)
        for (sweep, reference), n, seed in zip(SWEEPS, (301, 150, 150),
                                               (5, 6, 7)):
            summary, got = sweep_fields(sweep, n, seed)
            want_summary, want = reference(n, seed, chunk)
            assert_fields_equal_bits(got, want)
            assert summary == want_summary

    def test_a_bad_stack_is_rejected(self):
        for bad_row in ([np.nan, 1.0], [np.inf, 0.0], [-0.5, 1.5],
                        [0.5, 0.5 + 1e-9]):
            flat = [[0.5, 0.5], bad_row, [0.25, 0.75]]
            with pytest.raises(ValueError):
                theory._check_joints(np.array(flat))

