"""On-disk formats: model directories, calibration files, mask bitmaps."""

import json

import numpy as np
import pytest

from coarsefine.errors import ModelFormatError
from coarsefine.io import (
    load_calibration,
    load_masks,
    load_model,
    save_calibration,
    save_masks,
    save_model,
)
from coarsefine.model import Block, CalibrationSet, LayerSpec, ModelGraph

from conftest import tiny_linear_model, write_aliased_model


def f32_grid(arr):
    return arr.astype("<f4").astype(np.float64)


class TestModelRoundTrip:
    def test_save_load_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        model = ModelGraph(
            blocks=[
                Block("enc", [
                    LayerSpec("enc.fc", "linear", rng.normal(size=(4, 6)),
                              bias=rng.normal(size=4), activation="relu"),
                ]),
                Block("dec", [
                    LayerSpec("dec.out", "linear", rng.normal(size=(2, 4)),
                              frozen=True),
                ]),
            ],
            head="mse",
        )
        save_model(model, tmp_path / "m")
        again = load_model(tmp_path / "m")
        assert again.head == "mse"
        for orig, new in zip(model.layers(), again.layers()):
            assert new.name == orig.name
            assert new.frozen == orig.frozen
            assert new.activation == orig.activation
            np.testing.assert_array_equal(new.weight, f32_grid(orig.weight))
            if orig.bias is not None:
                np.testing.assert_array_equal(new.bias, f32_grid(orig.bias))

    def test_round_trip_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(1)
        model = tiny_linear_model([rng.normal(size=(5, 5))])
        save_model(model, tmp_path / "a")
        m1 = load_model(tmp_path / "a")
        save_model(m1, tmp_path / "b")
        m2 = load_model(tmp_path / "b")
        assert m1.layer("L0").weight.tobytes() == m2.layer("L0").weight.tobytes()
        assert (tmp_path / "a" / "L0.bin").read_bytes() == (
            tmp_path / "b" / "L0.bin"
        ).read_bytes()

    def test_embedding_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        model = ModelGraph(
            blocks=[Block("b", [
                LayerSpec("emb", "embedding", rng.normal(size=(3, 7))),
                LayerSpec("out", "linear", rng.normal(size=(7, 3))),
            ])],
            head="next_token_cross_entropy",
        )
        save_model(model, tmp_path / "m")
        again = load_model(tmp_path / "m")
        assert again.layers()[0].kind == "embedding"

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path)

    def test_wrong_file_size_rejected(self, tmp_path):
        model = tiny_linear_model([np.eye(3)])
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / "L0.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    def test_unsupported_version_rejected(self, tmp_path):
        model = tiny_linear_model([np.eye(3)])
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["format_version"] = "99"
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    def test_unsafe_layer_name_rejected(self, tmp_path):
        model = ModelGraph(
            blocks=[Block("b", [LayerSpec("bad/name", "linear", np.eye(2))])],
            head="mse",
        )
        with pytest.raises(ModelFormatError):
            save_model(model, tmp_path / "m")


class TestAliasedTensorFiles:
    """Two tensors of one model may not share a file: the weight of a layer
    named "a.bias" would be read back as layer "a"'s bias."""

    @pytest.mark.parametrize("biased_first", [True, False])
    def test_save_rejects_a_shared_file(self, tmp_path, biased_first):
        biased = LayerSpec("a", "linear", np.ones((4, 3 if biased_first else 4)),
                           bias=np.zeros(4))
        other = LayerSpec("a.bias", "linear", np.ones((1, 4) if biased_first else (4, 3)))
        model = ModelGraph([Block("b", [biased, other] if biased_first else [other, biased])],
                           "mse")
        with pytest.raises(ModelFormatError, match="a.bias.bin"):
            save_model(model, tmp_path / "m")
        assert not (tmp_path / "m").exists()  # nothing written

    def test_load_rejects_a_shared_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="a.bias.bin"):
            load_model(write_aliased_model(tmp_path / "m"))


class TestCalibrationRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        batch = CalibrationSet(
            [(rng.normal(size=(4,)), rng.normal(size=(2,))) for _ in range(5)]
        )
        path = save_calibration(batch, tmp_path / "calib.json")
        again = load_calibration(path)
        assert again.count == 5
        for (x0, y0), (x1, y1) in zip(batch.samples, again.samples):
            np.testing.assert_array_equal(x1, f32_grid(x0))
            np.testing.assert_array_equal(y1, f32_grid(y0))

    def test_sequence_samples(self, tmp_path):
        ids = np.arange(6, dtype=np.float64)
        batch = CalibrationSet([(ids, ids[::-1].copy())])
        again = load_calibration(save_calibration(batch, tmp_path / "c.json"))
        np.testing.assert_array_equal(again.samples[0][0], ids)

    @pytest.mark.parametrize("resize", [lambda data: data[:-4], lambda data: data + data[:4]],
                             ids=["one float short", "one float long"])
    def test_truncated_data_rejected(self, tmp_path, resize):
        batch = CalibrationSet([(np.ones(4), np.ones(2))])
        path = save_calibration(batch, tmp_path / "c.json")
        data = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(resize(data))
        with pytest.raises(ModelFormatError):
            load_calibration(path)


class TestMaskRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        masks = {
            "a": rng.random((5, 9)) > 0.5,
            "b": np.ones((3, 3), dtype=bool),
            "c": np.zeros((2, 17), dtype=bool),
        }
        load_dir = save_masks(masks, tmp_path / "masks")
        again = load_masks(load_dir)
        assert set(again) == set(masks)
        for name in masks:
            np.testing.assert_array_equal(again[name], masks[name])
        index = json.loads((load_dir / "masks.json").read_text())
        kept = {name: entry["kept"] for name, entry in index["layers"].items()}
        assert kept == {name: int(m.sum()) for name, m in masks.items()}
        assert all(type(k) is int for k in kept.values())  # JSON ints, not floats

    def test_tampered_index_rejected(self, tmp_path):
        masks = {"a": np.ones((2, 5), dtype=bool)}
        save_masks(masks, tmp_path / "m")
        index = json.loads((tmp_path / "m" / "masks.json").read_text())
        index["layers"]["a"]["kept"] = 3
        (tmp_path / "m" / "masks.json").write_text(json.dumps(index))
        with pytest.raises(ModelFormatError):
            load_masks(tmp_path / "m")

    @pytest.mark.parametrize("change", [
        lambda index: index["layers"]["a"].pop("kept"),
        lambda index: index["layers"]["a"].pop("shape"),
        lambda index: index["layers"]["a"].update(shape="ab"),
        lambda index: index.pop("layers"),
        lambda index: index.update(layers=[1]),
        lambda index: index["layers"]["a"].update(file="gone.mask.bin"),
        lambda index: index["layers"]["a"].update(file="../outside/a.mask.bin"),
        lambda index: index.update(bit_order="lsb_first"),
        # escaped as a ValueError: no bits, but a dimension numpy cannot hold
        lambda index: index["layers"]["a"].update(shape=[0, 10**400], kept=0),
    ], ids=["no kept", "no shape", "shape a string", "no layers", "layers a list",
            "file missing", "file outside", "bits lsb first", "shape past numpy's limits"])
    def test_malformed_index_rejected(self, tmp_path, change):
        masks = {"a": np.ones((2, 5), dtype=bool)}
        save_masks(masks, tmp_path / "m")
        save_masks(masks, tmp_path / "outside")  # a readable file outside "m"
        index = json.loads((tmp_path / "m" / "masks.json").read_text())
        change(index)
        (tmp_path / "m" / "masks.json").write_text(json.dumps(index))
        with pytest.raises(ModelFormatError):
            load_masks(tmp_path / "m")


class TestPlanAndScoreFiles:
    # the first three used to raise KeyError, ValueError and KeyError; the
    # rest were accepted, or failed with a builtin error
    CHANGES = {
        "plan without per_layer": ("plan", lambda o: o.pop("per_layer")),
        "plan keep_count a string": ("plan", lambda o: o["per_layer"]["L0"].update(
            keep_count="x")),
        "scores without entries": ("scores", lambda o: o.pop("entries")),
        "plan per_layer a list": ("plan", lambda o: o.update(per_layer=[1])),
        "plan layer entry not an object": ("plan", lambda o: o["per_layer"].update(L0=5)),
        "plan size a float": ("plan", lambda o: o["per_layer"]["L0"].update(size=10.0)),
        "plan n_select a bool": ("plan", lambda o: o.update(n_select=True)),
        "plan target_p a string": ("plan", lambda o: o.update(target_p="half")),
        "plan without granularity": ("plan", lambda o: o.pop("granularity")),
        "plan format_version 2": ("plan", lambda o: o.update(format_version="2")),
        "scores entries a list": ("scores", lambda o: o.update(entries=[1.0])),
        "scores entry a string": ("scores", lambda o: o["entries"].update(L0="x")),
        "scores entry null": ("scores", lambda o: o["entries"].update(L0=None)),
        "scores without method": ("scores", lambda o: o.pop("method")),
        "scores seed a string": ("scores", lambda o: o.update(seed="0")),
        # these three used to raise OverflowError
        "plan target_p past the float range": ("plan", lambda o: o.update(target_p=10**400)),
        "plan sparsity past the float range": ("plan", lambda o: o["per_layer"]["L0"].update(
            sparsity=10**400)),
        "scores entry past the float range": ("scores", lambda o: o["entries"].update(
            L0=10**400)),
        # the first two were read as their defaults; every written field is required
        "scores without seed": ("scores", lambda o: o.pop("seed")),
        "scores without sample_count": ("scores", lambda o: o.pop("sample_count")),
        "scores without aggregation": ("scores", lambda o: o.pop("aggregation")),
    }

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_malformed_file_is_a_model_format_error(self, tmp_path, change):
        from coarsefine.allocation import SparsityPlan, allocate_sparsity
        from coarsefine.scoring import ScoreMap

        model = tiny_linear_model([np.ones((10, 1)), np.ones((1, 10))])
        scores = ScoreMap(entries={"L0": 1.0, "L1": 2.0}, method="magnitude")
        plan = allocate_sparsity(scores, model, 0.4, 0.9)
        kind, edit = self.CHANGES[change]
        cls, obj = (SparsityPlan, plan) if kind == "plan" else (ScoreMap, scores)
        path = obj.save(tmp_path / f"{kind}.json")
        assert cls.load(path) == obj
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            cls.load(path)
