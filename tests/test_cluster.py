import math

import numpy as np
import pytest

from photongate.cluster import (
    GrowthStats,
    MAX_QUBITS,
    ShapeError,
    SizeError,
    SmallState,
    apply_cz,
    apply_x,
    apply_z,
    attach_attempt,
    break_chain_at,
    graph_state,
    join_cross,
    make_linear_cluster,
    measure_qubit,
    monte_carlo_growth,
    random_basis,
    recover_failure,
    split_measure,
    stabilizers_hold,
    state_fidelity,
    write_growth_csv,
)


class TestLinearCluster:
    def test_single_qubit_is_plus(self):
        s = make_linear_cluster(1)
        assert np.allclose(s.amplitudes, [1, 1] / np.sqrt(2))

    def test_two_qubits(self):
        # CZ |+>|+> = (|00> + |01> + |10> - |11>)/2 = (|0,+> + |1,->)/sqrt2
        s = make_linear_cluster(2)
        assert np.allclose(s.amplitudes, np.array([1, 1, 1, -1]) / 2.0)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_end_decomposition(self, n):
        # the n-qubit chain decomposes over its last two qubits as
        # (phi0|0> (|0,+> + |1,->) + phi1|1> (|0,+> - |1,->)) / sqrt2
        # where phi0, phi1 are the branches of the (n-2)-qubit chain
        psi_n = make_linear_cluster(n).amplitudes.reshape(2 ** (n - 2), 2, 2)
        branches = make_linear_cluster(n - 2).amplitudes.reshape(2 ** (n - 3), 2)
        plus = np.array([1, 1]) / math.sqrt(2.0)
        minus = np.array([1, -1]) / math.sqrt(2.0)
        tail0 = np.stack([plus, minus])          # qubit n-1 = 0/1 for phi0
        tail1 = np.stack([plus, -minus])         # sign flip for phi1
        expected = np.zeros((2 ** (n - 3), 2, 2, 2), dtype=complex)
        expected[:, 0] = branches[:, 0][:, None, None] * tail0 / math.sqrt(2.0)
        expected[:, 1] = branches[:, 1][:, None, None] * tail1 / math.sqrt(2.0)
        assert np.allclose(psi_n, expected.reshape(psi_n.shape), atol=1e-12)

    def test_size_errors(self):
        with pytest.raises(SizeError):
            make_linear_cluster(0)
        with pytest.raises(SizeError):
            make_linear_cluster(MAX_QUBITS + 1)

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            SmallState(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_chain_stabilizers(self):
        n = 6
        edges = [(i, i + 1) for i in range(1, n)]
        assert stabilizers_hold(make_linear_cluster(n), edges)


class TestMeasurement:
    def test_computational_probabilities(self):
        s = make_linear_cluster(2)
        res0 = measure_qubit(s, 1, outcome=0)
        assert res0.probability == pytest.approx(0.5)
        assert np.allclose(res0.state.amplitudes, [1, 1] / np.sqrt(2))

    def test_arbitrary_basis_outcomes_half(self):
        # any end-qubit measurement basis on a chain yields both outcomes
        # with probability exactly 1/2
        rng = np.random.default_rng(5)
        for n in (3, 5, 7):
            s = make_linear_cluster(n)
            for _ in range(10):
                basis = random_basis(rng)
                res = measure_qubit(s, n, basis=basis, outcome=0)
                assert res.probability == pytest.approx(0.5, abs=1e-10)

    def test_random_basis_orthonormal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = random_basis(rng)
            assert np.allclose(b @ b.conj().T, np.eye(2), atol=1e-12)


class TestAttachRecover:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_success_grows_chain(self, n):
        grown = attach_attempt(make_linear_cluster(n), succeed=True)
        assert grown.n == n + 1
        assert state_fidelity(grown, make_linear_cluster(n + 1)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_success_respects_size_limit(self):
        with pytest.raises(SizeError):
            attach_attempt(make_linear_cluster(MAX_QUBITS), succeed=True)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_failure_then_recovery(self, n):
        rng = np.random.default_rng(1000 + n)
        target = make_linear_cluster(n - 2)
        for _ in range(20):
            failed = attach_attempt(make_linear_cluster(n), succeed=False, rng=rng)
            assert failed.n == n - 1
            recovered = recover_failure(failed, rng=rng)
            assert recovered.n == n - 2
            assert state_fidelity(recovered, target) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_both_recovery_outcomes(self, outcome):
        rng = np.random.default_rng(17)
        failed = attach_attempt(make_linear_cluster(4), succeed=False, rng=rng)
        recovered = recover_failure(failed, outcome=outcome)
        assert state_fidelity(recovered, make_linear_cluster(2)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_failure_branch_structure(self):
        # post-failure branch with a fixed computational-basis failure is
        # (phi0|0> +/- phi1|1>) on the end pair, per the chain decomposition
        basis = np.eye(2, dtype=complex)
        failed = attach_attempt(
            make_linear_cluster(4), succeed=False, basis=basis, outcome=0
        )
        m = failed.amplitudes.reshape(4, 2)
        psi2 = make_linear_cluster(2).amplitudes
        assert np.allclose(m[:, 0], psi2 / math.sqrt(2.0), atol=1e-12)


class TestSplit:
    @pytest.mark.parametrize("n,i", [(7, 4), (6, 3), (8, 5), (10, 4)])
    def test_fragments(self, n, i):
        rng = np.random.default_rng(n * 100 + i)
        for _ in range(5):
            left, right = split_measure(make_linear_cluster(n), i, rng=rng)
            assert left.n == i - 2 and right.n == n - i - 1
            assert state_fidelity(left, make_linear_cluster(i - 2)) == pytest.approx(
                1.0, abs=1e-10
            )
            assert state_fidelity(right, make_linear_cluster(n - i - 1)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_interior_index_enforced(self):
        s = make_linear_cluster(6)
        for i in (1, 2, 5, 6):
            with pytest.raises(IndexError):
                split_measure(s, i)


class TestJoinCross:
    def test_success_is_cross_graph_state(self):
        cross = join_cross(make_linear_cluster(3), make_linear_cluster(3), 2, 2, True)
        edges = [(1, 2), (2, 3), (4, 5), (5, 6), (2, 5)]
        assert stabilizers_hold(cross, edges)
        assert state_fidelity(cross, graph_state(6, edges)) == pytest.approx(1.0)

    def test_end_join_degenerates_to_chain(self):
        joined = join_cross(make_linear_cluster(3), make_linear_cluster(4), 3, 1, True)
        assert state_fidelity(joined, make_linear_cluster(7)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_failure_gives_four_fragments(self):
        rng = np.random.default_rng(21)
        frags = join_cross(
            make_linear_cluster(5), make_linear_cluster(6), 3, 3, False, rng=rng
        )
        assert [f.n for f in frags] == [1, 1, 1, 2]
        for f in frags:
            assert state_fidelity(f, make_linear_cluster(f.n)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_size_limit(self):
        with pytest.raises(SizeError):
            join_cross(make_linear_cluster(8), make_linear_cluster(8), 4, 4, True)


class TestBreakChain:
    def test_end_break_matches_two_qubit_loss(self):
        rng = np.random.default_rng(9)
        frags = break_chain_at(make_linear_cluster(6), 6, rng=rng)
        assert [f.n for f in frags] == [4]
        assert state_fidelity(frags[0], make_linear_cluster(4)) == pytest.approx(
            1.0, abs=1e-10
        )


class TestGrowthStatistics:
    def test_all_success(self):
        stats = monte_carlo_growth(1.0, m=500, n_trials=10, seed=3)
        assert stats.mean_delta == 500.0
        assert stats.std_err == 0.0

    @pytest.mark.parametrize("P", [0.5, 2.0 / 3.0, 0.8])
    def test_growth_law(self, P):
        stats = monte_carlo_growth(P, m=10_000, n_trials=200, seed=12)
        target = (3.0 * P - 2.0) * 10_000
        assert abs(stats.mean_delta - target) <= 3.0 * max(stats.std_err, 1e-12)

    def test_seed_determinism(self):
        a = monte_carlo_growth(0.8, 1000, 50, seed=4)
        b = monte_carlo_growth(0.8, 1000, 50, seed=4)
        assert a == b
        c = monte_carlo_growth(0.8, 1000, 50, seed=5)
        assert c.mean_delta != a.mean_delta

    def test_floor_clamps_and_is_flagged(self):
        stats = monte_carlo_growth(0.0, m=50, n_trials=5, seed=0, start_length=10)
        # every trial walks straight into the floor: net change is -10, not -100
        assert stats.mean_delta == -10.0
        assert stats.floor_hits == 5

    @pytest.mark.parametrize("P", [0.0, 0.45, 2.0 / 3.0, 0.9, 1.0])
    @pytest.mark.parametrize("start", [0, 10, 2 * 300 + 10])
    def test_walk_matches_per_attempt_loop(self, P, start):
        m, n_trials, seed = 300, 30, 21
        deltas, hits = [], 0
        for trial in range(n_trials):
            length, hit = start, False
            for u in np.random.default_rng([seed, trial]).random(m):
                length = length + 1 if u < P else max(length - 2, 0)
                hit = hit or length == 0
            deltas.append(length - start)
            hits += hit
        deltas = np.array(deltas, dtype=float)
        stats = monte_carlo_growth(P, m, n_trials, seed, start_length=start)
        assert stats.mean_delta == float(np.mean(deltas))
        assert stats.std_err == float(np.std(deltas, ddof=1) / math.sqrt(n_trials))
        assert stats.floor_hits == hits

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            monte_carlo_growth(1.5, 10, 10, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_growth(0.5, 0, 10, seed=0)

    def test_csv_schema(self, tmp_path):
        stats = monte_carlo_growth(0.75, 100, 10, seed=8)
        path = tmp_path / "growth.csv"
        write_growth_csv([stats], path, "cfg")
        lines = path.read_text().splitlines()
        assert lines[0] == "# cfg"
        assert lines[1] == "P,m,n_trials,seed,mean_delta,std_err,floor_hits"
        assert lines[2].split(",")[3] == "8"


class TestPrimitives:
    def test_cz_symmetric(self):
        s = make_linear_cluster(3)
        assert np.allclose(
            apply_cz(s, 1, 3).amplitudes, apply_cz(s, 3, 1).amplitudes
        )

    def test_pauli_involutions(self):
        s = make_linear_cluster(3)
        assert np.allclose(apply_z(apply_z(s, 2), 2).amplitudes, s.amplitudes)
        assert np.allclose(apply_x(apply_x(s, 2), 2).amplitudes, s.amplitudes)
