import hashlib
import math

import numpy as np
import pytest

from dpsgld import datagen
from dpsgld.core import InvalidParameterError, seeded_rng
from dpsgld.datagen import (
    FEATURE_LAWS,
    PopulationModel,
    closed_form_quadratic_risk,
    draw_dataset,
    export_dataset,
    feature_second_moment,
    import_dataset,
    population_risk_many,
)
from dpsgld.losses import GlmLoss

from helpers import phi_double_prime


def model_for(kind="logistic", d=8, law="ball", noise=0.1, w_scale=1.0):
    return PopulationModel(kind=kind, d=d, wstar_norm=w_scale, feature_law=law, label_noise=noise)


class TestPopulationModel:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PopulationModel(kind="poisson", d=2, wstar_norm=0.0)
        with pytest.raises(InvalidParameterError):
            PopulationModel(kind="logistic", d=0, wstar_norm=1.0)
        with pytest.raises(InvalidParameterError):
            PopulationModel(kind="logistic", d=2, wstar_norm=0.0, feature_law="cube")
        with pytest.raises(InvalidParameterError):
            PopulationModel(kind="quadratic", d=2, wstar_norm=0.0, label_noise=-0.1)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf])
    def test_label_noise_must_be_finite(self, noise):
        with pytest.raises(InvalidParameterError, match="label noise must be >= 0 and finite"):
            PopulationModel(kind="quadratic", d=2, wstar_norm=0.0, label_noise=noise)

    @pytest.mark.parametrize("value, shown", [(-1.0, "-1.0"), (math.nan, "nan")])
    def test_negative_or_nan_wstar_norm_is_refused(self, value, shown):
        # the words the CLI prints for data.wstar_norm and experiment.wstar_norm
        with pytest.raises(InvalidParameterError, match=f"^wstar_norm must be >= 0, got {shown}$"):
            PopulationModel(kind="logistic", d=2, wstar_norm=value)

    def test_infinite_wstar_norm_is_refused(self):
        with pytest.raises(InvalidParameterError, match="^wstar_norm must be finite, got inf$"):
            PopulationModel(kind="logistic", d=2, wstar_norm=math.inf)


class TestFeatureLaws:
    def test_sphere_norms_are_one(self):
        data = draw_dataset(model_for(law="sphere"), 500, seeded_rng(1, 0))
        np.testing.assert_allclose(np.linalg.norm(data.X, axis=1), 1.0, rtol=1e-12)

    def test_ball_norms_in_half_to_one(self):
        data = draw_dataset(model_for(law="ball"), 500, seeded_rng(1, 0))
        norms = np.linalg.norm(data.X, axis=1)
        assert norms.min() >= 0.5 - 1e-12
        assert norms.max() <= 1.0 + 1e-12
        # radius is U[0.5, 1]: mean 0.75
        np.testing.assert_allclose(norms.mean(), 0.75, atol=0.02)

    def test_low_rank_concentrates_energy_up_front(self):
        data = draw_dataset(model_for(law="low-rank", d=64), 400, seeded_rng(2, 0))
        np.testing.assert_allclose(np.linalg.norm(data.X, axis=1), 1.0, rtol=1e-12)
        energy = (data.X**2).mean(axis=0)
        # the leading 4 of 64 coordinates carry most of the mass
        assert energy[:4].sum() > energy[4:].sum()
        assert energy[:4].sum() > 0.7

    def test_sphere_mean_is_centered(self):
        data = draw_dataset(model_for(law="sphere", d=3), 20_000, seeded_rng(3, 0))
        np.testing.assert_allclose(data.X.mean(axis=0), np.zeros(3), atol=0.02)

    def test_second_moment_constants(self):
        assert feature_second_moment("sphere") == 1.0
        assert feature_second_moment("ball") == 7.0 / 12.0
        with pytest.raises(InvalidParameterError):
            feature_second_moment("low-rank")

    def test_ball_second_moment_matches_constant(self):
        data = draw_dataset(model_for(law="ball", d=5), 40_000, seeded_rng(4, 0))
        m2 = float((data.X**2).sum(axis=1).mean())
        np.testing.assert_allclose(m2, 7.0 / 12.0, atol=0.005)


class TestLabels:
    def test_logistic_labels_are_signs(self):
        data = draw_dataset(model_for(kind="logistic"), 300, seeded_rng(5, 0))
        assert set(np.unique(data.y)) <= {-1.0, 1.0}

    def test_logistic_label_bias_follows_margin(self):
        model = model_for(kind="logistic", d=2, law="sphere", w_scale=4.0)
        data = draw_dataset(model, 30_000, seeded_rng(6, 0))
        margins = data.X @ model.w_star
        strong = margins > 2.0
        assert strong.sum() > 500
        assert data.y[strong].mean() > 0.6

    def test_logistic_labels_at_a_huge_wstar_norm(self):
        # margins of order 10⁶ draw no overflow warning; where σ rounds to 0
        # or 1 the label is the margin's sign
        model = model_for(kind="logistic", d=3, w_scale=1e6)
        data = draw_dataset(model, 500, seeded_rng(10, 0))
        margins = data.X @ model.w_star
        sure = np.abs(margins) > 40.0
        assert sure.sum() > 490
        np.testing.assert_array_equal(data.y[sure], np.sign(margins[sure]))

    def test_quadratic_labels_center_on_margin(self):
        model = model_for(kind="quadratic", d=4, noise=0.05)
        data = draw_dataset(model, 30_000, seeded_rng(7, 0))
        residual = data.y - data.X @ model.w_star
        assert np.abs(residual).max() <= np.sqrt(3.0) * 0.05 + 1e-12
        np.testing.assert_allclose(residual.std(), 0.05, rtol=0.05)

    def test_noiseless_quadratic(self):
        model = model_for(kind="quadratic", d=4, noise=0.0)
        data = draw_dataset(model, 200, seeded_rng(8, 0))
        np.testing.assert_allclose(data.y, data.X @ model.w_star, atol=1e-15)


class TestDrawDataset:
    def test_deterministic_replay(self):
        model = model_for()
        a = draw_dataset(model, 50, seeded_rng(9, 4))
        b = draw_dataset(model, 50, seeded_rng(9, 4))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_needs_positive_n(self):
        with pytest.raises(InvalidParameterError):
            draw_dataset(model_for(), 0, seeded_rng(0, 0))

    def test_drawn_arrays_are_kept_read_only_without_a_copy(self, monkeypatch):
        drawn = []

        def features(*args):
            drawn.append(draw_features(*args))
            return drawn[-1]

        draw_features = datagen._draw_features
        monkeypatch.setattr(datagen, "_draw_features", features)
        data = draw_dataset(model_for(), 50, seeded_rng(9, 4))
        assert np.shares_memory(data.X, drawn[0])
        assert not data.X.flags.writeable and not data.y.flags.writeable


class TestPopulationRisk:
    def test_common_random_numbers_replay_exactly(self):
        model = model_for(kind="quadratic")
        w = np.full(8, 0.1)
        a = population_risk_many(GlmLoss("quadratic"), [w], model, 5000, seeded_rng(10, 0))
        b = population_risk_many(GlmLoss("quadratic"), [w], model, 5000, seeded_rng(10, 0))
        np.testing.assert_array_equal(a, b)

    def test_many_matches_single_with_shared_sample(self):
        model = model_for(kind="quadratic")
        ws = [np.zeros(8), np.full(8, 0.1), model.w_star]
        est, se = population_risk_many(GlmLoss("quadratic"), ws, model, 4000, seeded_rng(11, 0))
        for i, w in enumerate(ws):
            [single], [single_se] = population_risk_many(
                GlmLoss("quadratic"), [w], model, 4000, seeded_rng(11, 0)
            )
            np.testing.assert_allclose(est[i], single, rtol=1e-12)
            np.testing.assert_allclose(se[i], single_se, rtol=1e-12)

    def test_matches_closed_form_quadratic(self):
        loss = GlmLoss("quadratic")
        for law in ("ball", "sphere"):
            for d in (3, 6, 512):
                model = model_for(kind="quadratic", d=d, law=law, noise=0.1)
                ws = (np.zeros(d), np.full(d, 0.3), np.full(d, 3.0 / math.sqrt(d)))
                for w in ws:
                    exact = closed_form_quadratic_risk(model, w)
                    [est], [se] = population_risk_many(loss, [w], model, 200_000, seeded_rng(12, 0))
                    assert abs(est - exact) <= 4.0 * max(se, 1e-9), (law, d)

    def test_risk_at_w_star_is_noise_floor(self):
        model = model_for(kind="quadratic", d=6, noise=0.2)
        np.testing.assert_allclose(
            closed_form_quadratic_risk(model, model.w_star), 0.5 * 0.04, rtol=1e-14
        )

    def test_closed_form_guards(self):
        with pytest.raises(InvalidParameterError):
            closed_form_quadratic_risk(model_for(kind="logistic"), np.zeros(8))
        with pytest.raises(InvalidParameterError):
            closed_form_quadratic_risk(
                model_for(kind="quadratic", law="low-rank"), np.zeros(8)
            )

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(InvalidParameterError):
            population_risk_many(GlmLoss("logistic"), [np.zeros(8)], model_for(), 99, seeded_rng(0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            population_risk_many(
                GlmLoss("logistic"), [np.zeros(3)], model_for(d=8), 1000, seeded_rng(0, 0)
            )

    def test_se_shrinks_like_sqrt_n(self):
        model = model_for(kind="logistic")
        w = np.full(8, 0.2)
        _, [se_small] = population_risk_many(GlmLoss("logistic"), [w], model, 1000, seeded_rng(13, 0))
        _, [se_big] = population_risk_many(GlmLoss("logistic"), [w], model, 100_000, seeded_rng(13, 0))
        assert se_big < se_small / 5.0


# sha256 of (estimates, standard errors, Hessian trace) from the d-dimensional
# sampler, recorded before the 2-D sampler was added: the low-rank law and
# d < 3 must keep drawing exactly the same rows. At d = 600 the 20 000 rows
# come in three chunks. The trace is the held-out mean of φ″(wᵀx, y)·‖x‖²
# over a second stream's chunks, summed as it was when recorded.
D_DIMENSIONAL_DIGESTS = {
    ("logistic", "low-rank", 40): "9b7214fb6ca8242fd9a9b8f62382566d35b815efa5669dec73b4ffee3e47abec",
    ("quadratic", "low-rank", 600): "ad8e9a473345633f07b8ebdc9ee61319ae6e4c4023d0952c48ee18eb1c43a0c0",
    ("logistic", "ball", 2): "492cc84a0cbce8c7c8c94423eaa2e176f9476e372afbc23d3fa9c991446c9b16",
    ("quadratic", "sphere", 1): "f8c6829f559270eed1b80c67c5a7ef5bf514593be95b843b0492b29ac65222c9",
    ("quadratic", "ball", 2): "ca45ebad549023c3883aac5284add6ea6ff42639cb909a2bffb787e02dc590d8",
}


@pytest.mark.parametrize("kind,law,d", list(D_DIMENSIONAL_DIGESTS), ids=str)
def test_d_dimensional_estimates_are_pinned(kind, law, d):
    model = model_for(kind=kind, d=d, law=law)
    loss = GlmLoss(kind)
    ws = [np.zeros(d), model.w_star, np.random.default_rng(5).standard_normal(d) * 0.3]
    est, se = population_risk_many(loss, ws, model, 20_000, seeded_rng(3, 0))
    h = 0.0
    for X, y in datagen._held_out_chunks(model, 5_000, seeded_rng(4, 0)):
        curv = phi_double_prime(loss, (X @ ws[2][None].T)[:, 0], y)
        h += float(np.sum(curv * np.sum(X * X, axis=1)))
    h /= 5_000
    payload = est.tobytes() + se.tobytes() + np.float64(h).tobytes()
    assert hashlib.sha256(payload).hexdigest() == D_DIMENSIONAL_DIGESTS[(kind, law, d)]


class TestExportImport:
    def test_round_trip_is_exact(self, tmp_path):
        model = model_for(kind="quadratic", d=5)
        data = draw_dataset(model, 40, seeded_rng(17, 0))
        path = tmp_path / "sample.csv"
        export_dataset(data, path, "quadratic")
        loaded, kind = import_dataset(path)
        assert kind == "quadratic"
        np.testing.assert_array_equal(loaded.X, data.X)
        np.testing.assert_array_equal(loaded.y, data.y)

    def test_header_line(self, tmp_path):
        data = draw_dataset(model_for(d=3), 7, seeded_rng(18, 0))
        path = tmp_path / "sample.csv"
        export_dataset(data, path, "logistic")
        header = path.read_text().splitlines()[0]
        assert header == "# d=3 n=7 kind=logistic"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.1,0.2,1\n")
        with pytest.raises(InvalidParameterError, match="header"):
            import_dataset(path)

    def test_incomplete_header_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("# d=2 kind=logistic\n0.1,0.2,1\n")
        with pytest.raises(InvalidParameterError):
            import_dataset(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("# d=2 n=3 kind=logistic\n0.1,0.2,1\n0.1,0.2,1\n")
        with pytest.raises(InvalidParameterError, match="expected 3 rows"):
            import_dataset(path)

    def test_logistic_labels_must_be_signs(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = "0.1,0.2,1\n0.1,0.2,-1\n0.1,0.2,0.5\n0.1,0.2,5\n"
        path.write_text("# d=2 n=4 kind=logistic\n" + rows)
        with pytest.raises(InvalidParameterError, match="data row 3 has label 0.5"):
            import_dataset(path)
        path.write_text("# d=2 n=1 kind=logistic\n0.1,0.2,nan\n")
        with pytest.raises(InvalidParameterError, match="data row 1 has label nan"):
            import_dataset(path)
        path.write_text("# d=2 n=4 kind=quadratic\n" + rows)
        loaded, kind = import_dataset(path)
        assert kind == "quadratic"
        np.testing.assert_array_equal(loaded.y, [1.0, -1.0, 0.5, 5.0])

    def test_unknown_kind_rejected(self, tmp_path):
        data = draw_dataset(model_for(d=2), 3, seeded_rng(19, 0))
        with pytest.raises(InvalidParameterError):
            export_dataset(data, tmp_path / "x.csv", "hinge")
        path = tmp_path / "raw.csv"
        path.write_text("# d=2 n=1 kind=hinge\n0.1,0.2,1\n")
        with pytest.raises(InvalidParameterError):
            import_dataset(path)


def test_all_feature_laws_are_reachable():
    for law in FEATURE_LAWS:
        data = draw_dataset(model_for(law=law, d=4), 10, seeded_rng(20, 0))
        assert data.n == 10 and data.d == 4
