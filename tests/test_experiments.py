import numpy as np
import pytest

import yulesimon as ys
from yulesimon import McmcConfig, PriorSpec, StudyConfig, experiments


def small_study(prior_spec, alphas=(0.3, 0.7), reps=6, n=60, seed=99):
    return StudyConfig(
        alphas=alphas,
        n=n,
        replicates=reps,
        mcmc=McmcConfig(iterations=1_500, burn_in=300, seed=0),
        prior_spec=prior_spec,
        master_seed=seed,
    )


class TestSpecsAndConfig:
    def test_prior_spec_validation(self):
        assert PriorSpec("jeffreys").label == "jeffreys"
        assert PriorSpec("loss", 20).label == "loss-m20"
        with pytest.raises(ValueError):
            PriorSpec("flat")
        with pytest.raises(ValueError):
            PriorSpec("loss")  # missing m

    def test_study_config_validation(self):
        with pytest.raises(ValueError):
            small_study(PriorSpec("jeffreys"), alphas=(1.2,))
        with pytest.raises(ValueError):
            small_study(PriorSpec("jeffreys"), reps=0)

    def test_default_grids_mirror_discretizations(self):
        assert ys.default_grid(10) == tuple(np.arange(1, 10) / 10)
        assert len(ys.default_grid(20)) == 19


class TestDeterminism:
    def test_worker_count_does_not_change_results(self):
        cfg = small_study(PriorSpec("loss", 10))
        serial = ys.run_coverage_study(cfg, workers=1)
        parallel = ys.run_coverage_study(cfg, workers=2)
        assert serial == parallel

    def test_repeat_runs_identical(self):
        cfg = small_study(PriorSpec("jeffreys"), alphas=(0.5,), reps=4)
        assert ys.run_coverage_study(cfg, workers=2) == ys.run_coverage_study(
            cfg, workers=1
        )

    def test_csv_round(self, tmp_path):
        cfg = small_study(PriorSpec("loss", 10), alphas=(0.4,), reps=3)
        result = ys.run_coverage_study(cfg, workers=1)
        out = tmp_path / "cov.csv"
        result.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,coverage,rel_rmse_mean,rel_rmse_median,failures"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0.40000000000000002"


class TestFailureAccounting:
    def test_numeric_error_counts_as_failure(self, monkeypatch):
        fit_one = experiments._fit_one

        def fail_at_low_alpha(alpha_true, *args):
            if alpha_true == 0.3:
                raise ys.SeriesConvergenceError("forced", estimate=None, error_bound=1.0)
            return fit_one(alpha_true, *args)

        monkeypatch.setattr(experiments, "_fit_one", fail_at_low_alpha)
        cfg = small_study(PriorSpec("loss", 10), reps=3)
        rows = ys.run_coverage_study(cfg, workers=1).rows
        assert [row.failures for row in rows] == [3, 0]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug")

        monkeypatch.setattr(experiments, "_fit_one", broken)
        with pytest.raises(TypeError, match="bug"):
            ys.run_coverage_study(small_study(PriorSpec("loss", 10), reps=2), workers=1)


class TestJeffreysShards:
    # both prior kinds are dealt to shards
    SPECS = (PriorSpec("jeffreys"), PriorSpec("loss", 10))

    def test_small_study_forks_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", no_pool)
        for spec in self.SPECS:
            cfg = small_study(spec, reps=experiments._CHAINS_PER_SHARD // 2)
            rows = ys.run_coverage_study(cfg, workers=8).rows
            assert [row.failures for row in rows] == [0, 0]

    def test_shards_give_the_one_process_result(self, monkeypatch):
        # one replicate more than a shard holds: two shards on two workers
        reps = experiments._CHAINS_PER_SHARD // 2 + 1
        pools = []
        executor = experiments.concurrent.futures.ProcessPoolExecutor

        def counted(max_workers):
            pools.append(max_workers)
            return executor(max_workers=max_workers)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", counted)
        for spec in self.SPECS:
            cfg = StudyConfig(
                alphas=(0.3, 0.7),
                n=30,
                replicates=reps,
                mcmc=McmcConfig(iterations=300, burn_in=50, seed=0),
                prior_spec=spec,
                master_seed=12,
            )
            assert ys.run_coverage_study(cfg, workers=2) == ys.run_coverage_study(
                cfg, workers=1
            )
        assert pools == [2, 2]

    def test_failing_chains_count_per_alpha(self, monkeypatch):
        # The window scan asks for alphas across (0, 1); the calls that ask
        # only for alphas above 0.85 are those of a fit whose posterior lies
        # there, at alpha = 0.95 and not at 0.2.
        class FailsAbove(ys.JeffreysPrior):
            def log_unnormalized_array(self, alphas):
                if alphas.min() > 0.85:
                    raise ys.SeriesConvergenceError("forced", estimate=None)
                return super().log_unnormalized_array(alphas)

        monkeypatch.setattr(experiments, "_build_prior", lambda spec: FailsAbove())
        cfg = small_study(PriorSpec("jeffreys"), alphas=(0.2, 0.95), reps=3, n=500)
        rows = ys.run_coverage_study(cfg, workers=1).rows
        assert [row.failures for row in rows] == [0, 3]
        assert rows[0].coverage == ys.run_coverage_study(
            small_study(PriorSpec("jeffreys"), alphas=(0.2,), reps=3, n=500), workers=1
        ).rows[0].coverage


class TestCoverageStudy:
    def test_large_n_single_replicate_covers(self):
        # concentration sanity: one n=5000 dataset at alpha=0.5 is pinned
        # near the truth
        cfg = StudyConfig(
            alphas=(0.5,),
            n=5_000,
            replicates=1,
            mcmc=McmcConfig(iterations=10_000, burn_in=2_000, seed=0),
            prior_spec=PriorSpec("jeffreys"),
            master_seed=104,
        )
        row = ys.run_coverage_study(cfg, workers=1).rows[0]
        assert row.coverage == 1.0
        assert row.failures == 0
        assert row.rel_rmse_mean < 0.1

    def test_coverage_holds_as_n_grows(self):
        # alpha=0.5, Jeffreys: calibration does not degrade from n=30 to
        # n=500 (allowing a 0.1 slack), and precision improves
        rows = {}
        for n in (30, 500):
            cfg = StudyConfig(
                alphas=(0.5,),
                n=n,
                replicates=60,
                mcmc=McmcConfig(iterations=10_000, burn_in=2_000, seed=0),
                prior_spec=PriorSpec("jeffreys"),
                master_seed=77,
            )
            rows[n] = ys.run_coverage_study(cfg, workers=2).rows[0]
        assert rows[500].coverage >= rows[30].coverage - 0.1
        assert rows[500].rel_rmse_mean < rows[30].rel_rmse_mean

    def test_rel_rmse_shrinks_with_n_across_grid(self):
        # loss-based prior over the full M=10 grid at reduced replicates
        rows = {}
        for n in (30, 500):
            cfg = StudyConfig(
                alphas=ys.default_grid(10),
                n=n,
                replicates=40,
                mcmc=McmcConfig(iterations=10_000, burn_in=2_000, seed=0),
                prior_spec=PriorSpec("loss", 10),
                master_seed=78,
            )
            rows[n] = ys.run_coverage_study(cfg, workers=2).rows
        for r30, r500 in zip(rows[30], rows[500]):
            assert r500.rel_rmse_mean < r30.rel_rmse_mean


class TestFixedSampleStudy:
    def test_three_fits_and_reproducibility(self):
        out = ys.run_fixed_sample_study(0.40, 100, seed=4)
        assert list(out) == ["jeffreys", "loss-m10", "loss-m20"]
        again = ys.run_fixed_sample_study(0.40, 100, seed=4)
        assert out == again
        for summary in out.values():
            assert 0.0 < summary.ci_low <= summary.median <= summary.ci_high < 1.0
