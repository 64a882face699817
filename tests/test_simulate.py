"""Tests for cluster-size sampling, correlated latent draws, and trial I/O."""

import csv
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from zipcrt import (
    ClusterSizeModel,
    ConfigError,
    DomainError,
    TrialDataset,
    build_design,
    generate_trial,
    read_dataset,
    sample_cluster_size,
    sample_correlated_poisson,
    sample_structural_zeros,
    substream,
    write_dataset,
    zero_probability,
)

from conftest import DU_10_80, DU_34_56, TRUNPOIS, dataset, grid_design, pooled_pair_correlation


class TestSampleClusterSize:
    def test_fixed_is_constant(self):
        rng = substream(1, 0)
        assert all(
            sample_cluster_size(ClusterSizeModel.fixed(45), rng) == 45
            for _ in range(100)
        )

    def test_discrete_uniform_moments(self):
        rng = substream(2, 0)
        draws = np.array(
            [sample_cluster_size(DU_34_56, rng) for _ in range(10**5)], dtype=float
        )
        assert draws.min() >= 34 and draws.max() <= 56
        assert draws.mean() == pytest.approx(45.0, abs=0.1)
        assert draws.var() == pytest.approx(44.0, abs=1.5)

    def test_truncated_poisson_moments(self):
        rng = substream(3, 0)
        draws = np.array(
            [sample_cluster_size(TRUNPOIS, rng) for _ in range(10**5)], dtype=float
        )
        assert draws.min() >= 20 and draws.max() <= 70
        assert draws.mean() == pytest.approx(TRUNPOIS.eta_m, abs=0.1)
        assert draws.var() == pytest.approx(TRUNPOIS.sigma2_m, rel=0.05)


class TestStructuralZeros:
    def test_no_inflation_gives_all_zero(self):
        rng = substream(4, 0)
        assert not sample_structural_zeros(50, 0.0, 0.3, rng).any()

    def test_independent_case_is_uncorrelated(self):
        rng = substream(5, 0)
        pairs = np.array(
            [sample_structural_zeros(2, 0.4, 0.0, rng) for _ in range(10**5)]
        )
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_target_moments(self):
        rng = substream(6, 0)
        sample = np.array(
            [sample_structural_zeros(10, 0.5, 0.05, rng) for _ in range(10**5)]
        )
        assert sample.mean() == pytest.approx(0.5, abs=0.005)
        assert pooled_pair_correlation(sample) == pytest.approx(0.05, abs=0.01)

    def test_validation(self):
        rng = substream(7, 0)
        with pytest.raises(DomainError):
            sample_structural_zeros(5, 1.0, 0.0, rng)
        with pytest.raises(DomainError):
            sample_structural_zeros(5, 0.5, -0.1, rng)


class TestCorrelatedPoisson:
    def test_independent_case(self):
        rng = substream(8, 0)
        pairs = np.array(
            [sample_correlated_poisson(2, 2.0, 0.0, rng) for _ in range(10**5)]
        )
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) < 0.01
        assert pairs.mean() == pytest.approx(2.0, abs=0.02)

    def test_full_sharing_limit(self):
        rng = substream(9, 0)
        for _ in range(200):
            draw = sample_correlated_poisson(8, 3.0, 1.0 - 1e-12, rng)
            assert (draw == draw[0]).all()

    def test_target_moments(self):
        rng = substream(10, 0)
        sample = np.array(
            [sample_correlated_poisson(10, 2.0, 0.05, rng) for _ in range(10**5)]
        )
        assert sample.mean() == pytest.approx(2.0, abs=0.02)
        assert sample.var() == pytest.approx(2.0, abs=0.05)
        assert pooled_pair_correlation(sample) == pytest.approx(0.05, abs=0.01)

    def test_validation(self):
        rng = substream(11, 0)
        with pytest.raises(DomainError):
            sample_correlated_poisson(5, 0.0, 0.1, rng)
        with pytest.raises(DomainError):
            sample_correlated_poisson(5, 1.0, 1.0, rng)


class TestGenerateTrial:
    def test_poisson_subcase_recovers_means(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.0, q=0.0, rho_s=0.03, rho_u=0.03,
            cluster_sizes=DU_34_56,
        )
        data = generate_trial(design, 10**4, seed=11)
        for arm in (0, 1):
            outcomes = data.arm_outcomes(arm)
            assert outcomes.mean() == pytest.approx(design.arm(arm).mu, rel=0.01)

    def test_identical_seed_identical_dataset(self, config_a):
        first = generate_trial(config_a, 40, seed=123)
        second = generate_trial(config_a, 40, seed=123)
        assert first == second
        assert first != generate_trial(config_a, 40, seed=124)

    def test_zero_proportion_matches_mixture_mass(self, config_a):
        # ~2300 clusters of ~45 subjects ≈ 1e5 subjects
        data = generate_trial(config_a, 2300, seed=12)
        for arm in (0, 1):
            outcomes = data.arm_outcomes(arm)
            target = zero_probability(config_a.arm(arm))
            se = math.sqrt(target * (1 - target) / outcomes.size)
            observed = (outcomes == 0).mean()
            assert abs(observed - target) < 3 * se

    def test_balanced_allocation(self, config_a):
        arms = generate_trial(config_a, 20, seed=13).arm
        assert arms.sum() == 10
        # odd count: the extra cluster falls to either arm via a fair draw
        arms = generate_trial(config_a, 19, seed=13).arm
        assert arms.sum() in (9, 10)

    def test_unbalanced_allocation_rounds(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            r_bar=0.3, cluster_sizes=DU_34_56,
        )
        arms = generate_trial(design, 20, seed=14).arm
        assert arms.sum() == 6  # round(20 * 0.3)

    def test_bernoulli_allocation(self, config_a):
        data = generate_trial(config_a, 60, seed=15, bernoulli_allocation=True)
        arms = data.arm
        assert 0 < arms.sum() < 60

    def test_empty_arm_rejected(self):
        design = build_design(
            mu1=1.0, beta2=-0.431, p1=0.5, q=0.5, rho_s=0.03, rho_u=0.03,
            r_bar=0.01, cluster_sizes=DU_34_56,
        )
        with pytest.raises(ConfigError, match="empty arm"):
            generate_trial(design, 2, seed=16)

    def test_cluster_sizes_in_support(self, config_a):
        data = generate_trial(config_a, 200, seed=17)
        assert data.size.min() >= 34 and data.size.max() <= 56

    def test_minimum_clusters(self, config_a):
        with pytest.raises(ConfigError):
            generate_trial(config_a, 1, seed=18)


class TestDatasetTypes:
    def test_record_validation(self):
        with pytest.raises(DomainError, match="arm"):
            dataset([(0, 2, [1])])
        with pytest.raises(DomainError, match="at least one outcome"):
            dataset([(0, 0, [])])
        with pytest.raises(DomainError, match="nonnegative"):
            dataset([(0, 0, [-1])])
        with pytest.raises(DomainError, match="sum to"):
            TrialDataset(cluster_id=[0, 1], arm=[0, 1], size=[2, 2], outcomes=[1, 2, 3])
        with pytest.raises(DomainError, match="one entry per cluster"):
            TrialDataset(cluster_id=[0, 1], arm=[0], size=[1, 1], outcomes=[1, 2])
        # two clusters numbered 0 would merge into one on a round trip
        with pytest.raises(DomainError, match="distinct"):
            dataset([
                (0, 0, [1, 2]), (0, 0, [0, 3]), (1, 0, [2, 1]),
                (2, 1, [1, 1]), (3, 1, [0, 2]), (4, 1, [3, 0]),
            ])

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            dataset([])


class TestDatasetIO:
    def test_round_trip(self, config_a, tmp_path):
        data = generate_trial(config_a, 30, seed=19)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        loaded = read_dataset(str(path))
        assert loaded.seed is None
        assert loaded == dataclasses.replace(data, seed=None)

    def test_file_format(self, config_a, tmp_path):
        data = generate_trial(config_a, 4, seed=20)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        raw = path.read_bytes()
        assert raw.startswith(b"cluster_id,arm,y\n")
        assert b"\r" not in raw
        assert raw.count(b"\n") == data.n_subjects + 1

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,arm,y\n0,0,1\n")
        with pytest.raises(ConfigError, match="header"):
            read_dataset(str(path))

    def test_arm_flip_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n0,1,2\n")
        with pytest.raises(ConfigError, match="changes arm"):
            read_dataset(str(path))

    def test_negative_outcome_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,-1\n")
        with pytest.raises(ConfigError, match="negative"):
            read_dataset(str(path))

    def test_cluster_id_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n9223372036854775808,1,2\n")
        with pytest.raises(ConfigError, match=":3: cluster id 9223372036854775808 outside"):
            read_dataset(str(path))

    def test_outcome_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n1,1,9223372036854775808\n")
        with pytest.raises(ConfigError, match=":3: outcome 9223372036854775808 outside"):
            read_dataset(str(path))

    def test_arm_other_than_0_or_1_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n1,9223372036854775808,2\n")
        with pytest.raises(ConfigError, match=":3: arm must be 0 or 1"):
            read_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster_id,arm,y\n")
        with pytest.raises(ConfigError, match="no data"):
            read_dataset(str(path))

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text("cluster_id,arm,y\n0,0,1\n1,1,2\n0,0,3\n1,1,0\n")
        assert read_dataset(str(path)) == dataset([(0, 0, [1, 3]), (1, 1, [2, 0])])

    def test_bytes_pinned_across_versions(self, tmp_path):
        # simulate.py promises bit-for-bit replay of a seed; the hash pins
        # the bytes this seed produced when the pin was recorded
        data = generate_trial(grid_design(), 12, seed=2024)
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        assert data.n_subjects == 565
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "26cbcccdac739e293799dc58d27da8f9df928daf22daa7cd60172673995bf062"
        )

    PLAIN = "cluster_id,arm,y\n0,0,1\n1,1,2\n0,0,3\n"

    @pytest.mark.parametrize("text", [
        PLAIN.replace("\n", "\r\n"),
        "cluster_id,arm,y\n\n0,0,1\n\n1,1,2\n0,0,3\n\n",
        " cluster_id , arm , y \n 0 , 0 , 1 \n1 ,1, 2\n0,0 ,3 \n",
        'cluster_id,arm,y\n"0","0","1"\n1,"1",2\n0,0,"3"\n',
        PLAIN.rstrip("\n"),
        "\ufeff" + PLAIN,
    ], ids=["crlf", "blank-lines", "spaces", "quoted", "no-final-newline", "bom"])
    def test_accepted_forms_read_as_the_plain_file(self, tmp_path, text):
        path = tmp_path / "trial.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_dataset(str(path)) == dataset([(0, 0, [1, 3]), (1, 1, [2])])

    @pytest.mark.parametrize("row", ["#x", "0,0,1.0", "0,0", "0,0,1_0", "0,0,1,"])
    def test_malformed_row_names_its_line(self, tmp_path, row):
        # Python's int() reads "1_0" as 10; the reader takes plain base-10 integers only
        path = tmp_path / "bad.csv"
        path.write_text(f"cluster_id,arm,y\n0,0,1\n{row}\n1,1,2\n")
        with pytest.raises(ConfigError, match=":3: malformed row"):
            read_dataset(str(path))

    @pytest.mark.parametrize("second_line", ["0,0,1\n", '0,0,"1\n"'], ids=["blank", "quoted-break"])
    def test_line_numbers_are_physical_lines(self, tmp_path, second_line):
        # a blank line, or a line break inside a quoted field, is still a line
        path = tmp_path / "bad.csv"
        path.write_text(f"cluster_id,arm,y\n{second_line}\n1,1,-2\n")
        with pytest.raises(ConfigError, match=r"bad\.csv:4: negative outcome -2"):
            read_dataset(str(path))

    @pytest.fixture(scope="class")
    def large_trial(self):
        data = generate_trial(grid_design(cluster_sizes=DU_10_80), 2000, seed=8)
        ids = np.repeat(data.cluster_id, data.size)
        arms = np.repeat(data.arm, data.size)
        return data, list(zip(ids.tolist(), arms.tolist(), data.outcomes.tolist()))

    def test_shuffled_rows_group_by_first_appearance(self, large_trial, tmp_path):
        rows = list(large_trial[1])
        np.random.default_rng(3).shuffle(rows)
        path = tmp_path / "shuffled.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows([("cluster_id", "arm", "y"), *rows])
        grouped = {}  # insertion order is the order of first appearance
        for cid, arm, y in rows:
            grouped.setdefault((cid, arm), []).append(y)
        expected = dataset([(cid, arm, ys) for (cid, arm), ys in grouped.items()])
        assert read_dataset(str(path)) == expected

    def test_bytes_match_a_csv_writer(self, large_trial, tmp_path):
        data, rows = large_trial
        path = tmp_path / "trial.csv"
        write_dataset(data, str(path))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([("cluster_id", "arm", "y"), *rows])
        assert path.read_bytes() == reference.read_bytes()
