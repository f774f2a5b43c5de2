"""Fuzzed prune inputs: whatever is done to the manifest, the calibration
index or their tensor files, ``prune`` through ``cli.main`` returns an exit
code, and a failure prints exactly one JSON error line carrying that code."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from coarsefine.cli import main
from coarsefine.io import save_calibration, save_model
from coarsefine.model import Block, LayerSpec, ModelGraph

from conftest import random_batch


def _fixture_files() -> dict[str, bytes]:
    """Two blocks of GELU layers 3-4-4-2 (the first with a bias) and four
    calibration samples, as the bytes of every file prune reads."""
    rng = np.random.default_rng(0)
    model = ModelGraph(blocks=[
        Block("b0", [
            LayerSpec("L0", "linear", rng.normal(size=(4, 3)), bias=rng.normal(size=4),
                      activation="gelu"),
            LayerSpec("L1", "linear", rng.normal(size=(4, 4)), activation="gelu"),
        ]),
        Block("b1", [LayerSpec("L2", "linear", rng.normal(size=(2, 4)))]),
    ], head="mse")
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        save_model(model, root / "model")
        save_calibration(random_batch(rng, 4, 3, 2), root / "calib.json")
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }


FILES = _fixture_files()
JSON_FILES = ("model/manifest.json", "calib.json")


def _locations(obj, path=()):
    """Every path into a JSON tree, the root () included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _locations(child, path + (key,))


LOCATIONS = [(f, loc) for f in JSON_FILES for loc in _locations(json.loads(FILES[f]))]
VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 2**62, -1, 0, -0.5, 1.5, True, None,
    "x", "", ".", "..", "../model/L0.bin", "/abs/L0", "a/b", [], {}, [0], [-1, 2], [2, 3, 4],
]
BIN_FILES = sorted(f for f in FILES if f.endswith(".bin"))

MUTATION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(LOCATIONS), st.sampled_from(VALUES)),
    st.tuples(st.just("drop"), st.sampled_from([l for l in LOCATIONS if l[1]])),
    st.tuples(st.just("truncate"), st.sampled_from(sorted(FILES)), st.floats(0, 1)),
    st.tuples(st.just("poison"), st.sampled_from(BIN_FILES),
              st.sampled_from([math.nan, math.inf, 3e38, -3e38])),
    # the width between two layers, set in both shapes that share it, with
    # the layers' tensor files resized to match when the sizes allow
    st.tuples(st.just("width"), st.sampled_from([1, 2]),
              st.sampled_from([0, 1, 5, -1, 2**62])),
)


def _set_json(files, name, change) -> None:
    try:
        obj = json.loads(files[name])
        change(obj)
    except (ValueError, LookupError, TypeError, AttributeError):
        return  # an earlier mutation removed what this one edits
    files[name] = json.dumps(obj).encode()


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _set(obj, path, value):
    _at(obj, path[:-1])[path[-1]] = value


def _drop(obj, path):
    del _at(obj, path[:-1])[path[-1]]


def _width(files, boundary, width) -> None:
    def change(manifest):
        layers = manifest["blocks"][0]["layers"] + manifest["blocks"][1]["layers"]
        layers[boundary - 1]["shape"][0] = width
        layers[boundary]["shape"][1] = width
        for entry in layers[boundary - 1 : boundary + 1]:
            d_out, d_in = entry["shape"]
            if not all(type(n) is int and 0 <= n <= 5 for n in (d_out, d_in)):
                continue  # no tensor file for a negative or huge size
            files[f"model/{entry['name']}.bin"] = np.ones(d_out * d_in, "<f4").tobytes()
            if entry.get("has_bias"):
                files[f"model/{entry['name']}.bias.bin"] = np.ones(d_out, "<f4").tobytes()

    _set_json(files, "model/manifest.json", change)


def mutate(mutations) -> dict[str, bytes]:
    files = dict(FILES)
    for op, *args in mutations:
        if op == "set":
            (name, path), value = args
            if path:
                _set_json(files, name, lambda o: _set(o, path, value))
            else:
                files[name] = json.dumps(value).encode()
        elif op == "drop":
            name, path = args[0]
            _set_json(files, name, lambda o: _drop(o, path))
        elif op == "truncate":
            name, fraction = args
            files[name] = files[name][: int(len(files[name]) * fraction)]
        elif op == "poison":
            name, value = args
            files[name] = np.float32(value).tobytes() + files[name][4:]
        else:
            _width(files, *args)
    return files


@given(
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
    coarse=st.sampled_from(["zeroth", "first", "magnitude", "uniform", "local"]),
    fine=st.sampled_from(["wanda", "sparsegpt", "magnitude"]),
)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_inputs_exit_with_one_error_line(mutations, coarse, fine):
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        for name, data in mutate(mutations).items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([
                "prune", "--model-dir", str(root / "model"),
                "--calib", str(root / "calib.json"), "--out", str(root / "out"),
                "--coarse", coarse, "--fine", fine, "--samples", "4",
            ])
    event(f"exit {code}")
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["achieved_global_sparsity"] >= 0
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit_code"] == code
        assert code in (1, 2, 3)
