"""Fuzzed inputs: whatever is done to the manifest, the calibration index,
their tensor files or a ``--config`` file, ``prune`` through ``cli.main``
returns an exit code, and a failure prints exactly one JSON error line
carrying that code.  The same holds for ``compare`` on a mutated
``report.json``; a mutated ``plan.json`` or ``scores.json`` loads or
raises a ``CoarseFineError``, and so does a mutated mask directory,
whose loader reads no file outside it."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from coarsefine.allocation import SparsityPlan
from coarsefine.cli import main
from coarsefine.errors import CoarseFineError
from coarsefine.io import load_masks, save_calibration, save_model
from coarsefine.model import Block, LayerSpec, ModelGraph
from coarsefine.pipeline import RunConfig, cmd_prune
from coarsefine.scoring import ScoreMap

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


def _write(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


def _run_files() -> dict[str, bytes]:
    """The JSON files and the masks a magnitude + wanda prune of the fixture
    above writes."""
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        _write(root, FILES)
        cmd_prune(RunConfig(model_dir=str(root / "model"), calib_path=str(root / "calib.json"),
                            out_dir=str(root / "out"), coarse="magnitude", samples=4))
        return {p.relative_to(root / "out").as_posix(): p.read_bytes()
                for name in ("report.json", "plan.json", "scores.json", "masks/*")
                for p in sorted((root / "out").glob(name))}


RUN_FILES = _run_files()


def _locations(obj, path=()):
    """Every path into a JSON tree, the root () included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _locations(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, 2**62, -1, 0, -0.5, 1.5]
VALUES = NUMBERS + [
    True, None, "x", "", ".", "..", "../model/L0.bin", "/abs/L0", "a/b", [], {}, [0],
    [-1, 2], [2, 3, 4],
]


def _edits(files: dict[str, bytes], json_files=None) -> st.SearchStrategy:
    """Set a value anywhere in json_files (default all files), drop a key or
    an item there, or truncate any of files."""
    json_files = files if json_files is None else json_files
    trees = {f: json.loads(files[f]) for f in json_files}
    locations = [(f, loc) for f in json_files for loc in _locations(trees[f])]
    numeric = [(f, loc) for f, loc in locations
               if type(_at(trees[f], loc)) in (int, float)]
    return st.one_of(
        st.tuples(st.just("set"), st.sampled_from(locations), st.sampled_from(VALUES)),
        # the numbers again, so extreme values meet them more often
        st.tuples(st.just("set"), st.sampled_from(numeric), st.sampled_from(NUMBERS)),
        st.tuples(st.just("drop"), st.sampled_from([l for l in locations if l[1]])),
        st.tuples(st.just("truncate"), st.sampled_from(sorted(files)), st.floats(0, 1)),
    )


BIN_FILES = sorted(f for f in FILES if f.endswith(".bin"))

MUTATION = st.one_of(
    _edits(FILES, JSON_FILES),
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


def mutate(mutations, base=FILES) -> dict[str, bytes]:
    files = dict(base)
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
        _write(root, mutate(mutations))
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


REPORT = {"report.json": RUN_FILES["report.json"]}


@given(mutations=st.lists(_edits(REPORT), min_size=1, max_size=3))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_report_compares_or_exits_with_one_error_line(mutations):
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        _write(root, {"good.json": REPORT["report.json"]})
        _write(root, mutate(mutations, REPORT))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["compare", str(root / "good.json"), str(root / "report.json"),
                         "--out", str(root / "cmp")])
    event(f"exit {code}")
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["reports"] == 2
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit_code"] == 2


RECORDS = {"plan.json": SparsityPlan, "scores.json": ScoreMap}
RECORD_FILES = {name: RUN_FILES[name] for name in RECORDS}


@given(mutations=st.lists(_edits(RECORD_FILES), min_size=1, max_size=3))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_plan_and_scores_load_or_raise_a_package_error(mutations):
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        _write(root, mutate(mutations, RECORD_FILES))
        for name, cls in RECORDS.items():
            try:
                cls.load(root / name)
                event(f"{name} loads")
            except CoarseFineError as e:
                event(f"{name} {type(e).__name__}")


MASKS = {name: data for name, data in RUN_FILES.items() if name.startswith("masks/")}


@contextlib.contextmanager
def _reads():
    """The paths passed to os.open, open, Path.read_text, Path.read_bytes and
    np.fromfile while inside (a descriptor or an open file passed on was
    recorded where it was opened)."""
    paths = []

    def recorded(read):
        def wrapper(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)):
                paths.append(Path(path))
            return read(path, *args, **kwargs)
        return wrapper

    with mock.patch("os.open", recorded(os.open)), \
            mock.patch("builtins.open", recorded(open)), \
            mock.patch.object(Path, "read_text", recorded(Path.read_text)), \
            mock.patch.object(Path, "read_bytes", recorded(Path.read_bytes)), \
            mock.patch.object(np, "fromfile", recorded(np.fromfile)):
        yield paths


@given(mutations=st.lists(_edits(MASKS, ["masks/masks.json"]), min_size=1, max_size=3))
# no bits, in a shape numpy cannot hold
@example(mutations=[("set", ("masks/masks.json", ("layers", "L0", "shape", 0)), 0),
                    ("set", ("masks/masks.json", ("layers", "L0", "shape", 1)), 10**400),
                    ("set", ("masks/masks.json", ("layers", "L0", "kept")), 0)])
# a mask file named "..", the directory above the masks
@example(mutations=[("set", ("masks/masks.json", ("layers", "L0", "file")), "..")])
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_masks_load_or_raise_a_package_error(mutations):
    with tempfile.TemporaryDirectory() as d:
        root = Path(d).resolve()
        # the model's files beside the masks, where "../model/L0.bin" points
        _write(root, {**FILES, **mutate(mutations, MASKS)})
        with _reads() as paths:
            try:
                load_masks(root / "masks")
                event("loads")
            except CoarseFineError as e:
                event(type(e).__name__)
    assert paths and all(p.resolve().is_relative_to(root / "masks") for p in paths), paths


# A valid config on the fixture above, every field set.  Runs start in
# root/run, so its relative paths, and the path-like values below (at most
# one ".." deep), all stay inside the run's temporary directory.
CONFIG = {
    "model_dir": "../model", "calib_path": "../calib.json", "out_dir": "out",
    "sparsity": 0.5, "max_sparsity": 0.6, "coarse": "zeroth", "fine": "wanda",
    "granularity": "block", "samples": 4, "noises": 1, "epsilon": 1e-3, "lambda": 0.01,
    "seed": 0, "aggregation": "sum", "norm_exponent": 1,
}
CONFIG_VALUES = NUMBERS + [
    True, False, None, "x", "", ".", "..", "../model", "../calib.json",
    "../model/manifest.json", "a/b", "out/../..", [], {}, [0],
]
CONFIG_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(sorted(CONFIG)), st.sampled_from(CONFIG_VALUES)),
    # the numeric fields again, so extreme numbers meet them more often
    st.tuples(st.just("set"), st.sampled_from(sorted(k for k, v in CONFIG.items()
                                                     if not isinstance(v, str))),
              st.sampled_from(NUMBERS)),
    st.tuples(st.just("drop"), st.sampled_from(sorted(CONFIG))),
    st.tuples(st.just("stray"), st.sampled_from(["sparsify", "hessian_lambda", ""])),
    st.tuples(st.just("replace"), st.sampled_from(CONFIG_VALUES)),  # not an object
    st.tuples(st.just("truncate"), st.floats(0, 1)),
)


def mutate_config(config, mutations) -> bytes:
    config, text = dict(config), None
    for op, *args in mutations:
        if op == "replace":
            config = copy.deepcopy(args[0])
        elif op == "truncate":
            text = json.dumps(config)
            text = text[: int(len(text) * args[0])]
        elif not isinstance(config, dict):
            continue  # an earlier mutation replaced the object this one edits
        elif op == "set":
            config[args[0]] = args[1]
        elif op == "drop":
            config.pop(args[0], None)
        else:
            config[args[0]] = 1
    return (json.dumps(config) if text is None else text).encode()


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@given(
    mutations=st.lists(CONFIG_MUTATION, min_size=1, max_size=3),
    coarse=st.sampled_from(["zeroth", "first", "magnitude", "uniform", "local"]),
    fine=st.sampled_from(["wanda", "sparsegpt", "magnitude"]),
)
# a noise count numpy cannot allocate, and perturbed losses that overflow
@example(mutations=[("set", "noises", 2**62)], coarse="zeroth", fine="wanda")
@example(mutations=[("set", "epsilon", 1e308)], coarse="zeroth", fine="wanda")
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_config_exits_with_one_error_line(mutations, coarse, fine):
    config = dict(CONFIG, coarse=coarse, fine=fine)
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        _write(root, FILES)
        (root / "run").mkdir()
        (root / "run" / "cfg.json").write_bytes(mutate_config(config, mutations))
        before = _tree(root)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root / "run")
        try:
            # a numpy warning would print before the JSON line; as an error
            # it escapes main, which pytest's own warning capture would hide
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(["prune", "--config", "cfg.json"])
        finally:
            os.chdir(cwd)
        unchanged = _tree(root) == before
    event(f"exit {code}")
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["achieved_global_sparsity"] >= 0
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit_code"] == code
        assert code in (1, 2, 3)
    if code == 1:  # a usage error writes nothing, --out included
        assert unchanged
