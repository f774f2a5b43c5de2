"""On-disk formats: model directories, calibration files, mask bitmaps."""

import json

import numpy as np
import pytest

from coarsefine.errors import ModelFormatError
from coarsefine.io import (
    F32_CHUNK,
    _create,
    _read_f32,
    load_calibration,
    load_masks,
    load_model,
    removed_on_failure,
    save_calibration,
    save_masks,
    save_model,
)
from coarsefine.model import FINITE_BLOCK, Block, CalibrationSet, LayerSpec, ModelGraph

from conftest import random_mlp, tiny_linear_model, traced, write_aliased_model


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 512 * 256, 512 * 512 - 1],
                             ids=["first", "middle", "last"])
    def test_non_finite_value_on_disk_rejected(self, tmp_path, at, value):
        save_model(tiny_linear_model([np.ones((512, 512))]), tmp_path / "m")
        data = np.fromfile(tmp_path / "m" / "L0.bin", dtype="<f4")
        data[at] = value
        data.tofile(tmp_path / "m" / "L0.bin")
        with pytest.raises(ModelFormatError, match="non-finite values on disk"):
            load_model(tmp_path / "m")

    def test_finite_check_holds_one_block(self, tmp_path):
        # a 512x512 float32 tensor is checked FINITE_BLOCK elements at a
        # time; np.isfinite of the whole tensor held a 262 KB bool array
        path = tmp_path / "w.bin"
        np.ones((512, 512), dtype="<f4").tofile(path)
        _read_f32(path, (512, 512), np.float32)  # first-call allocations are not the reader's
        raw, (_, peak) = traced(_read_f32, path, (512, 512), np.float32)
        assert raw.dtype == np.float32 and np.all(raw == 1.0)
        assert peak < raw.nbytes + FINITE_BLOCK + 16_384, peak - raw.nbytes

    def test_save_holds_one_float32_chunk(self, tmp_path):
        # the 256-512-512-128 MLP: each tensor is converted F32_CHUNK
        # elements at a time (128 KB of float32); converting the largest
        # layer whole took 1 MB
        model = random_mlp(np.random.default_rng(41), [256, 512, 512, 128])
        save_model(model, tmp_path / "m")  # first-call allocations are not the writer's
        _, (_, peak) = traced(save_model, model, tmp_path / "m")
        assert max(l.size for l in model.layers()) > 4 * F32_CHUNK
        assert peak < 4 * F32_CHUNK + 32_768, peak
        for layer in model.layers():
            data = (tmp_path / "m" / f"{layer.name}.bin").read_bytes()
            assert data == layer.weight.astype("<f4").tobytes()


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
        np.testing.assert_array_equal(again.xs, f32_grid(batch.xs))
        np.testing.assert_array_equal(again.ys, f32_grid(batch.ys))

    def test_unsafe_stem_is_refused_before_a_write(self, tmp_path):
        # "my calib.bin" is a data file load_calibration refuses to read
        batch = CalibrationSet.stacked(np.ones((2, 3)), np.zeros((2, 1)))
        with pytest.raises(ModelFormatError, match="'my calib.bin' is not filesystem-safe"):
            save_calibration(batch, tmp_path / "my calib.json")
        assert list(tmp_path.iterdir()) == []

    def test_sequence_samples(self, tmp_path):
        ids = np.arange(6, dtype=np.float64)
        batch = CalibrationSet([(ids, ids[::-1].copy())])
        again = load_calibration(save_calibration(batch, tmp_path / "c.json"))
        np.testing.assert_array_equal(again.xs[0], ids)

    @pytest.mark.parametrize("xs_shape,ys_shape", [((5, 7), (5, 7)), ((5, 4), (5,)),
                                                   ((5, 3, 2), (5, 2))],
                             ids=["token ids", "class ids", "[K, T, d] inputs"])
    def test_save_load_save_is_byte_identical(self, tmp_path, xs_shape, ys_shape):
        rng = np.random.default_rng(5)
        batch = CalibrationSet.stacked(rng.integers(0, 9, xs_shape), rng.normal(size=ys_shape))
        save_calibration(batch, tmp_path / "a" / "c.json")
        again = load_calibration(tmp_path / "a" / "c.json")
        save_calibration(again, tmp_path / "b" / "c.json")
        for name in ("c.json", "c.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert again.xs.shape == xs_shape and again.ys.shape == ys_shape
        assert again.xs.flags.c_contiguous and again.ys.dtype == np.float64
        np.testing.assert_array_equal(again.ys, f32_grid(batch.ys))

    @pytest.mark.parametrize("samples,data,match", [
        ([{"input": [4], "target": [2]}, {"input": [2, 2], "target": [2]}],  # same size
         None, "differ in shape"),
        # no elements, in a shape numpy cannot hold: the guard on each stacked array
        ([{"input": [0, 10**400], "target": [0]}] * 2, b"", "numpy cannot hold"),
    ], ids=["samples differ in shape", "shape past numpy's limits"])
    def test_malformed_sample_shapes_rejected(self, tmp_path, samples, data, match):
        path = save_calibration(CalibrationSet([(np.ones(4), np.ones(2))] * 2),
                                tmp_path / "c.json")
        index = json.loads(path.read_text())
        index["samples"] = samples
        path.write_text(json.dumps(index))
        if data is not None:
            (tmp_path / "c.bin").write_bytes(data)
        with pytest.raises(ModelFormatError, match=match):
            load_calibration(path)

    def test_load_holds_the_stacked_arrays_alone(self, tmp_path):
        # 256 samples, 512-wide inputs, 128-wide targets: the load reads one
        # float32 block and converts its two column ranges into the two
        # float64 arrays, with no per-sample view or list.  Per-sample views
        # (the older loader) peaked 0.21-0.23 MB above block and arrays and
        # held 0.08-0.09 MB above the arrays; this one measured 0.10 and 0.03
        rng = np.random.default_rng(6)
        k, d_in, d_out = 256, 512, 128
        path = save_calibration(
            CalibrationSet.stacked(rng.normal(size=(k, d_in)), rng.normal(size=(k, d_out))),
            tmp_path / "c.json")
        load_calibration(path)  # first-call allocations are not the loader's
        arrays = 8 * k * (d_in + d_out)
        batch, (held, peak) = traced(load_calibration, path)
        assert batch.count == k
        assert peak - arrays // 2 - arrays < 160_000, peak
        assert held - arrays < 60_000, held

    @pytest.mark.parametrize("resize", [lambda data: data[:-4], lambda data: data + data[:4],
                                        lambda data: data + b"\0"],  # read as 6 floats
                             ids=["one float short", "one float long", "one byte long"])
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
        # the (2, 5) mask's bytes 0xff 0xc0 under a smaller shape: a byte more
        # than 5 bits need, and a set padding bit after 9 bits; both used to load
        lambda index: index["layers"]["a"].update(shape=[1, 5], kept=5),
        lambda index: index["layers"]["a"].update(shape=[3, 3], kept=9),
    ], ids=["no kept", "no shape", "shape a string", "no layers", "layers a list",
            "file missing", "file outside", "bits lsb first", "shape past numpy's limits",
            "file longer than its shape", "padding bits set"])
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


class TestRemovedOnFailure:
    def test_symlinked_directory_is_not_removed_through(self, tmp_path):
        # rmdir does not follow a symlink: the link and its target stay, and
        # only the file the block created is unlinked
        target, link = tmp_path / "target", tmp_path / "link"
        target.mkdir()
        (target / "kept.bin").write_bytes(b"kept")
        link.symlink_to(target, target_is_directory=True)
        empty_target, empty_link = tmp_path / "empty", tmp_path / "empty_link"
        empty_target.mkdir()
        empty_link.symlink_to(empty_target, target_is_directory=True)
        with pytest.raises(OSError, match="injected"):
            with removed_on_failure(link, empty_link, tmp_path / "made"):
                (tmp_path / "made").mkdir()
                with _create(tmp_path / "made" / "new.bin") as f:
                    f.write(b"new")
                raise OSError("injected")
        assert link.is_symlink() and empty_link.is_symlink()
        assert [(p.name, p.read_bytes()) for p in target.iterdir()] == [("kept.bin", b"kept")]
        assert empty_target.is_dir() and list(empty_target.iterdir()) == []
        assert not (tmp_path / "made").exists()
