import math

import numpy as np
import pytest

from dpsgld import datagen, engine, planar
from dpsgld.core import seeded_rng
from dpsgld.datagen import PopulationModel, draw_dataset, population_risk_many
from dpsgld.harness import DATA_SUBSTREAM, data_kind
from dpsgld.losses import GlmLoss, loss_bounds
from dpsgld.schedules import single_pass_schedule


def model_for(kind="logistic", d=8, law="ball", noise=0.1, w_scale=1.0):
    return PopulationModel(kind=kind, d=d, wstar_norm=w_scale, feature_law=law, label_noise=noise)


def single_pass(models, loss, schedule, reps):
    """Each cell's final pairs, every (cell, replicate) chain drawing from a
    fresh DATA_SUBSTREAM generator of its replicate, as the experiments run it."""
    gens = [[rep.substream(DATA_SUBSTREAM).generator for rep in reps] for _ in models]
    return planar.single_pass(models, loss, schedule, gens)


def lift(pairs, d):
    """α·e₁ + β·e₂ in d dimensions, one row per pair."""
    W = np.zeros((len(pairs), d))
    W[:, :2] = pairs
    return W


class TestPairs:
    def test_applies_to_the_sphere_and_ball_laws_from_d_3(self):
        assert planar.applies(model_for(d=3, law="sphere"))
        assert planar.applies(model_for(d=3, law="ball"))
        assert not planar.applies(model_for(d=2, law="ball"))
        assert not planar.applies(model_for(d=512, law="low-rank"))

    def test_projection_reads_the_first_coordinate_and_the_rest_norm(self):
        W = np.array([[3.0, 5.0, 0.0, 12.0], [-1.5, 0.0, 0.0, 0.0]])
        assert planar.pairs(W).tolist() == [[3.0, 13.0], [-1.5, 0.0]]

    @pytest.mark.parametrize("d", [3, 512])
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    def test_scoring_pairs_has_the_bits_of_scoring_their_d_vectors(self, law, d):
        # the experiments score the chain's pairs directly; the d-vectors they
        # stand for, scored by population_risk_many, give the same bits
        model = model_for(d=d, law=law, w_scale=2.0)
        gen = np.random.default_rng(d)
        pairs = np.column_stack([gen.standard_normal(5), np.abs(gen.standard_normal(5))])
        pairs = np.vstack([pairs, (model.wstar_norm, 0.0)])
        loss = GlmLoss("logistic")
        direct = planar.population_risk(loss, pairs, model, 20_000, seeded_rng(3, 0).generator)
        lifted = population_risk_many(loss, list(lift(pairs, d)), model, 20_000, seeded_rng(3, 0))
        assert np.stack(direct).tobytes() == np.stack(lifted).tobytes()


def d_dimensional_risk(loss, ws, model, n_test, rng):
    """Mean and standard error of the loss over full d-dimensional held-out rows."""
    W = np.stack(ws)
    values = np.concatenate(
        [loss.phi(X @ W.T, y[:, None]) for X, y in datagen._held_out_chunks(model, n_test, rng)]
    )
    return values.mean(axis=0), values.std(axis=0) / math.sqrt(n_test)


class TestProjectedEstimator:
    """On the sphere and ball laws (d >= 3) the held-out rows are 2-D projections."""

    @pytest.mark.parametrize("w_scale", [1.0, 0.0], ids=["wstar", "wstar0"])
    @pytest.mark.parametrize("d", [3, 512])
    @pytest.mark.parametrize("kind", ["logistic", "quadratic"])
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    def test_matches_d_dimensional_rows(self, law, kind, d, w_scale):
        # independent samples, so the two estimates differ by noise of
        # standard error sqrt(se_a² + se_b²); the loss at w = 0 is constant
        # for logistic labels, so allow rounding there
        model = model_for(kind=kind, d=d, law=law, w_scale=w_scale)
        loss = GlmLoss(kind)
        along = np.zeros(d)
        along[0] = 2.0  # parallel to wStar, or along u₁ = e₁ when wStar = 0
        generic = np.random.default_rng(d).standard_normal(d)
        generic *= 1.5 / np.linalg.norm(generic)
        ws = [np.zeros(d), along, generic]
        est, se = population_risk_many(loss, ws, model, 20_000, seeded_rng(21, 0))
        ref, ref_se = d_dimensional_risk(loss, ws, model, 20_000, seeded_rng(21, 1))
        tolerance = 4.0 * np.sqrt(se**2 + ref_se**2) + 1e-12
        assert np.all(np.abs(est - ref) <= tolerance), (est, ref)

    @pytest.mark.parametrize("d", [3, 512])
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    def test_iterate_parallel_to_w_star_scores_exactly(self, law, d):
        # noiseless quadratic labels are wStarᵀx, so wStar itself has zero
        # loss on every row only if its second coordinate is exactly 0
        model = model_for(kind="quadratic", d=d, law=law, noise=0.0, w_scale=0.7)
        loss = GlmLoss("quadratic")
        est, se = population_risk_many(loss, [model.w_star], model, 1000, seeded_rng(22, 0))
        assert est[0] == 0.0 and se[0] == 0.0
        # and so does its pair, scored directly
        pair = np.array([[model.wstar_norm, 0.0]])
        est, se = planar.population_risk(loss, pair, model, 1000, seeded_rng(22, 0).generator)
        assert est[0] == 0.0 and se[0] == 0.0

    def test_isotropic_laws_never_draw_d_dimensional_rows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew d-dimensional held-out rows")

        monkeypatch.setattr(datagen, "_draw_features", refuse)
        d = 100_000
        for law in ("sphere", "ball"):
            model = model_for(d=d, law=law)
            loss = GlmLoss("logistic")
            est, _ = population_risk_many(
                loss, [np.zeros(d), model.w_star], model, 10_000, seeded_rng(25, 0)
            )
            assert np.all(np.isfinite(est))


def _z(a, b):
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return (a.mean() - b.mean()) / se


class TestReducedSinglePass:
    """Single-pass chains on the sphere and ball laws run as the (α, β) chain."""

    @pytest.mark.parametrize(
        "law, family, n, d, eps, eta0",
        [
            ("ball", "logistic", 64, 40, None, 1.0),
            ("sphere", "logistic", 128, 100, 20.0, 4.0),
            # d − 2 = 3 < b + 1 from b = 3 on: a rank-deficient Bartlett factor
            ("sphere", "quadratic", 64, 5, None, 1.0),
            ("ball", "quadratic", 64, 24, 20.0, 4.0),
        ],
    )
    def test_reduced_chain_has_the_law_of_the_engine(self, law, family, n, d, eps, eta0):
        # Two independent samples of 1 000 chains: the reduced chain against
        # engine.run_single_pass on drawn d-dimensional data, each drawn from
        # DATA_SUBSTREAM as the experiments draw it. The means and variances of
        # α and β must agree within 4.5 standard errors. The tolerance was
        # fixed before the first run. The harness default ε = n^(−1/4) leaves
        # the chains noise-dominated; ε = 20, η₀ = 4 lets the data drive them.
        chains = 1000
        loss = GlmLoss(family)
        eps = eps if eps is not None else n**-0.25
        schedule = single_pass_schedule(n, loss_bounds(loss).G, eta0, eps, 1.0 / n**2)
        model = PopulationModel(data_kind(family), d, 2.0, law, 0.1)
        [reduced] = single_pass([model], loss, schedule, [seeded_rng(1, r) for r in range(chains)])
        full = []
        for r in range(chains):
            rep = seeded_rng(2, r)
            data = draw_dataset(model, schedule.sample_budget, rep.substream(DATA_SUBSTREAM))
            _, [final] = engine.run_single_pass(data, loss, schedule, rep, log_interval=schedule.T)
            full.append(final)
        worst = {}
        for name, a, b in zip(("alpha", "beta"), reduced.T, planar.pairs(np.stack(full)).T):
            worst[f"{name} mean"] = _z(a, b)
            worst[f"{name} var"] = _z((a - a.mean()) ** 2, (b - b.mean()) ** 2)
        assert max(abs(z) for z in worst.values()) <= 4.5, worst

    @pytest.mark.parametrize("d", [3, 5])
    def test_a_padded_bartlett_factor_keeps_the_gram_law(self, d):
        # b = 5 leaves d − 2 < b + 1: the factor keeps b + 1 columns, lower
        # triangular and 0 past column d − 2, and each S_ii = ‖L_i‖² stays
        # χ²_(d−2), with mean d − 2 and variance 2(d − 2) within 4 standard
        # errors over 20 000 draws
        b, steps, k = 5, 20_000, d - 2
        model = PopulationModel("logistic", d, 2.0, "sphere", 0.1)
        *_, L = planar._reduced_draws(model, b, steps, np.random.default_rng(d))
        assert L.shape == (steps, b + 1, b + 1)
        assert np.all(L[..., k:] == 0.0)
        assert np.all(np.triu(L, 1) == 0.0)
        for S_ii in (L * L).sum(axis=2).T:
            dev = (S_ii - S_ii.mean()) ** 2
            z_mean = (S_ii.mean() - k) / math.sqrt(S_ii.var(ddof=1) / steps)
            z_var = (S_ii.var(ddof=1) - 2 * k) / (dev.std(ddof=1) / math.sqrt(steps))
            assert abs(z_mean) <= 4.0 and abs(z_var) <= 4.0, (z_mean, z_var)

    @pytest.mark.parametrize("d", [3, 512])
    def test_lifted_iterates_have_held_out_coordinates_alpha_beta(self, d):
        # The chain's pairs lifted to α·e₁ + β·e₂ project back to (α, β) bit
        # for bit, since β >= 0 and √(β²) = β. Fed the unit rows e₁ and e₂ as
        # its 2-D sample (and zero chi-square), the held-out sampler returns
        # each pair as its margins, so it reads exactly (α, β) too.
        class UnitRows:
            def standard_normal(self, size):
                return np.eye(2)

            def chisquare(self, df, size):
                return np.zeros(size)

            def uniform(self, low=0.0, high=1.0, size=None):
                return np.full(size, 0.5)

        loss = GlmLoss("logistic")
        schedule = single_pass_schedule(40, 1.0, 1.0, 0.5, 1e-3)
        model = PopulationModel("logistic", d, 2.0, "sphere", 0.1)
        [pairs] = single_pass([model], loss, schedule, [seeded_rng(9, r) for r in range(64)])
        alpha, beta = pairs.T
        assert np.any(alpha < 0) and np.any(alpha > 0) and np.all(beta > 0)
        assert planar.pairs(lift(pairs, d)).tobytes() == pairs.tobytes()
        margins, _ = planar._held_out_margins(model, pairs, 2, UnitRows())
        assert margins.tobytes() == np.stack([alpha, beta]).tobytes()

    def test_replicate_output_does_not_depend_on_its_neighbours(self):
        loss = GlmLoss("logistic")
        schedule = single_pass_schedule(40, 1.0, 1.0, 0.5, 1e-3)
        for law, d in (("ball", 30), ("sphere", 4)):
            model = PopulationModel("logistic", d, 2.0, law, 0.1)
            reps = [seeded_rng(6, r) for r in range(3)]
            [together] = single_pass([model], loss, schedule, reps)
            for r, rep in enumerate(reps):
                [alone] = single_pass([model], loss, schedule, [seeded_rng(6, r)])
                np.testing.assert_array_equal(together[r], alone[0])
            assert together.shape == (3, 2)
            assert np.all(together[:, 1] > 0)

    def test_small_blocks_keep_replicates_independent(self, monkeypatch):
        # splitting a run of equal batch sizes into blocks redraws the numbers
        # but keeps every replicate independent of its neighbours
        loss = GlmLoss("logistic")
        schedule = single_pass_schedule(40, 1.0, 1.0, 0.5, 1e-3)
        model = PopulationModel("logistic", 12, 2.0, "ball", 0.1)
        monkeypatch.setattr(planar, "_REDUCED_BLOCK_FLOATS", 8)
        blocks = []

        def drawing(model, b, steps, gen):
            blocks.append((b, steps))
            return draws(model, b, steps, gen)

        draws = planar._reduced_draws
        monkeypatch.setattr(planar, "_reduced_draws", drawing)
        reps = [seeded_rng(6, r) for r in range(2)]
        [together] = single_pass([model], loss, schedule, reps)
        # b = 1 (block 8 // 4 = 2 steps) and b >= 2 (one step a block) are split
        assert max(steps for _, steps in blocks) == 2
        [alone] = single_pass([model], loss, schedule, [seeded_rng(6, 1)])
        np.testing.assert_array_equal(together[1], alone[0])

    @pytest.mark.parametrize("family", ["logistic", "smoothed-hinge", "quadratic"])
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    def test_a_batched_cell_has_the_bits_of_the_cell_run_alone(self, monkeypatch, law, family):
        # small blocks split the runs of equal batch sizes, so a block length
        # that depended on the number of chains would redraw the numbers; at
        # d = 3 and 5 (b up to 5) the Bartlett factor has padded zero columns
        monkeypatch.setattr(planar, "_REDUCED_BLOCK_FLOATS", 64)
        loss = GlmLoss(family)
        schedule = single_pass_schedule(40, loss_bounds(loss).G, 1.0, 0.5, 1e-3)
        dims = (3, 5, 9, 40, 300)
        models = [PopulationModel(data_kind(family), d, 2.0, law, 0.1) for d in dims]
        reps = [seeded_rng(6, r) for r in range(3)]
        together = single_pass(models, loss, schedule, reps)
        assert together.shape == (len(dims), 3, 2)
        for model, pairs in zip(models, together):
            [alone] = single_pass([model], loss, schedule, reps)
            assert pairs.tobytes() == alone.tobytes()
