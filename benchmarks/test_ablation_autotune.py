"""Ablation: the §4.1.2 closed-form TB split vs empirical autotuning.

If the paper's formula is right, an exhaustive search over boundary
block counts should find (nearly) the same split.  `repro.tune` runs
the search on the simulator: the chunks=1 TB-split grid
(`tb_split_grid`) with the formula's schedule (`formula_schedule`) as
the model, so the model regret is the formula's regret.
"""

from repro.stencil import StencilConfig
from repro.tune import formula_schedule, tb_split_grid, tune


def test_formula_near_optimal_across_regimes(run_once, benchmark):
    def experiment():
        regimes = {
            "balanced_2d": StencilConfig(
                global_shape=(2048 + 2, 2048 + 2), num_gpus=8,
                iterations=15, with_data=False),
            "unbalanced_3d": StencilConfig(
                global_shape=(4 * 8 + 2, 1024 + 2, 1024 + 2), num_gpus=8,
                iterations=15, with_data=False),
            "small_2d": StencilConfig(
                global_shape=(8 * 32 + 2, 256 + 2), num_gpus=8,
                iterations=15, with_data=False),
        }
        return {name: tune(cfg, grid=tb_split_grid(cfg),
                           model=formula_schedule(cfg))
                for name, cfg in regimes.items()}

    results = run_once(experiment)
    print(f"\n{'regime':>15} {'formula':>8} {'best':>6} {'regret':>8}")
    for name, result in results.items():
        print(f"{name:>15} {result.model.boundary_tb_per_side:>8} "
              f"{result.best.boundary_tb_per_side:>6} "
              f"{result.model_regret_percent:>7.1f}%")
        benchmark.extra_info[f"{name}_regret_%"] = result.model_regret_percent
    # the closed form stays within 25% of the empirical optimum everywhere
    assert all(r.model_regret_percent < 25.0 for r in results.values())
