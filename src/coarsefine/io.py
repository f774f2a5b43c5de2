"""On-disk formats: model directories, calibration sets, prune masks.

Model directory: ``manifest.json`` (format version "1": blocks, layer
specs, shapes, frozen flags, loss kind) plus one raw tensor file per
tensor — ``<layer>.bin`` for the weight and ``<layer>.bias.bin`` for the
optional bias — little-endian IEEE-754 float32, row-major, no header.
In memory everything is float64; files quantize to float32.

Calibration file: ``<name>.json`` index listing per-sample input/target
shapes next to one ``.bin`` holding the tensors concatenated in sample
order with the same binary convention.

Masks: ``<layer>.mask.bin`` packed bits (row-major, MSB-first within a
byte) plus a ``masks.json`` index.

Every JSON file the package writes (these indexes, score maps, plans,
reports) goes through :func:`write_json`: sorted keys, indent 2, a
trailing newline, under the one ``FORMAT_VERSION``.  Every JSON file it
reads goes through :func:`read_json`, and the loaders check each field's
type and every name or file they name, so a malformed or tampered file
is a ``ModelFormatError`` and no read leaves the directory it was given.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import DimensionError, ModelFormatError
from .model import Block, CalibrationSet, LayerSpec, ModelGraph

FORMAT_VERSION = "1"

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_REQUIRED = object()
NUMBER = (int, float)  # a JSON number, as a _field kind


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ModelFormatError(f"name {name!r} is not filesystem-safe")
    return name


def write_json(obj: dict, path: str | Path) -> Path:
    """Write obj as sorted-key, indent-2 JSON with a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_json(path: str | Path) -> dict:
    """Parse a JSON object; a missing, unreadable or non-object file is a
    ModelFormatError."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:  # missing file, a directory, no permission
        raise ModelFormatError(f"cannot read {path}: {e.strerror}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ModelFormatError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path} must hold a JSON object")
    return obj


def _field(obj, key: str, kind: type, where: str, default=_REQUIRED):
    """obj[key], which must have type kind, a type or a tuple of types
    (bool is not an int here)."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    if key not in obj and default is not _REQUIRED:
        return default
    value = obj.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        name = getattr(kind, "__name__", "number")
        raise ModelFormatError(f"{where}: field {key!r} must be a {name}")
    return value


def _shape(obj, key: str, where: str) -> tuple[int, ...]:
    dims = _field(obj, key, list, where)
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in dims):
        raise ModelFormatError(f"{where}: {key!r} must list nonnegative integers")
    return tuple(dims)


def _read_raw(path: Path, dtype: str) -> np.ndarray:
    if not path.is_file():
        raise ModelFormatError(f"missing data file {path}")
    return np.fromfile(path, dtype=dtype)


def _write_f32(path: Path, arr: np.ndarray) -> None:
    np.ascontiguousarray(arr, dtype=np.float64).astype("<f4").tofile(path)


def _read_f32(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    raw = _read_raw(path, "<f4")
    expected = math.prod(shape)
    if raw.size != expected:
        raise ModelFormatError(
            f"{path}: {raw.size} floats on disk, expected {expected}"
        )
    if not np.all(np.isfinite(raw)):
        raise ModelFormatError(f"{path}: non-finite values on disk")
    return raw.astype(np.float64).reshape(shape)


# -- model directories ------------------------------------------------------


def save_model(model: ModelGraph, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": FORMAT_VERSION, "head": model.head, "blocks": []}
    for block in model.blocks:
        entry = {"name": _check_name(block.name), "layers": []}
        for layer in block.layers:
            _check_name(layer.name)
            entry["layers"].append(
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "shape": list(layer.weight.shape),
                    "activation": layer.activation,
                    "frozen": layer.frozen,
                    "has_bias": layer.bias is not None,
                }
            )
            _write_f32(directory / f"{layer.name}.bin", layer.weight)
            if layer.bias is not None:
                _write_f32(directory / f"{layer.name}.bias.bin", layer.bias)
        manifest["blocks"].append(entry)
    write_json(manifest, directory / "manifest.json")
    return directory


def load_model(directory: str | Path) -> ModelGraph:
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {manifest.get('format_version')!r}"
        )
    blocks = []
    for bentry in _field(manifest, "blocks", list, "manifest"):
        bname = _check_name(_field(bentry, "name", str, "manifest block"))
        layers = []
        for lentry in _field(bentry, "layers", list, f"block {bname!r}"):
            name = _check_name(_field(lentry, "name", str, f"block {bname!r} layer"))
            where = f"layer {name!r}"
            shape = _shape(lentry, "shape", where)
            if len(shape) != 2:
                raise ModelFormatError(f"{where}: shape must be 2-D")
            weight = _read_f32(directory / f"{name}.bin", shape)
            bias = None
            if _field(lentry, "has_bias", bool, where, False):
                bias = _read_f32(directory / f"{name}.bias.bin", (shape[0],))
            layers.append(
                LayerSpec(
                    name=name,
                    kind=_field(lentry, "kind", str, where),
                    weight=weight,
                    bias=bias,
                    activation=_field(lentry, "activation", str, where, "identity"),
                    frozen=_field(lentry, "frozen", bool, where, False),
                )
            )
        blocks.append(Block(name=bname, layers=layers))
    return ModelGraph(blocks=blocks, head=_field(manifest, "head", str, "manifest"))


# -- calibration sets --------------------------------------------------------


def save_calibration(batch: CalibrationSet, json_path: str | Path) -> Path:
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    data_name = json_path.stem + ".bin"
    index = {
        "format_version": FORMAT_VERSION,
        "data_file": data_name,
        "samples": [
            {"input": list(x.shape), "target": list(y.shape)}
            for x, y in batch.samples
        ],
    }
    with open(json_path.parent / data_name, "wb") as f:
        for x, y in batch.samples:
            f.write(np.ascontiguousarray(x, dtype=np.float64).astype("<f4").tobytes())
            f.write(np.ascontiguousarray(y, dtype=np.float64).astype("<f4").tobytes())
    return write_json(index, json_path)


def load_calibration(json_path: str | Path) -> CalibrationSet:
    json_path = Path(json_path)
    index = read_json(json_path)
    if index.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError("unsupported calibration format version")
    data_file = _check_name(_field(index, "data_file", str, "calibration index"))
    data = _read_raw(json_path.parent / data_file, "<f4")
    if not np.all(np.isfinite(data)):
        raise ModelFormatError(f"{data_file}: non-finite values on disk")
    samples = []
    offset = 0
    for entry in _field(index, "samples", list, "calibration index"):
        xs = _shape(entry, "input", "calibration sample")
        ys = _shape(entry, "target", "calibration sample")
        nx = math.prod(xs)
        ny = math.prod(ys)
        if offset + nx + ny > data.size:
            raise ModelFormatError("calibration data file shorter than its index")
        x = data[offset : offset + nx].astype(np.float64).reshape(xs)
        offset += nx
        y = data[offset : offset + ny].astype(np.float64).reshape(ys)
        offset += ny
        samples.append((x, y))
    if offset != data.size:
        raise ModelFormatError("calibration data file longer than its index")
    return CalibrationSet(samples)


# -- masks -------------------------------------------------------------------


def save_masks(masks: dict[str, np.ndarray], directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = {"format_version": FORMAT_VERSION, "bit_order": "msb_first", "layers": {}}
    for name in sorted(masks):
        _check_name(name)
        mask = np.ascontiguousarray(masks[name], dtype=bool)
        if mask.ndim != 2:
            raise DimensionError(f"mask for {name!r} must be 2-D")
        fname = f"{name}.mask.bin"
        np.packbits(mask.reshape(-1)).tofile(directory / fname)
        index["layers"][name] = {
            "shape": list(mask.shape),
            "file": fname,
            "kept": int(mask.sum()),
        }
    write_json(index, directory / "masks.json")
    return directory


def load_masks(directory: str | Path) -> dict[str, np.ndarray]:
    directory = Path(directory)
    index = read_json(directory / "masks.json")
    if index.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError("unsupported mask format version")
    masks = {}
    for name, entry in _field(index, "layers", dict, "mask index").items():
        where = f"mask {name!r}"
        shape = _shape(entry, "shape", where)
        n = math.prod(shape)
        bits = _read_raw(directory / _check_name(_field(entry, "file", str, where)), "u1")
        flat = np.unpackbits(bits)[:n].astype(bool)
        if flat.size != n:
            raise ModelFormatError(f"mask file for {name!r} too short")
        mask = flat.reshape(shape)
        if int(mask.sum()) != _field(entry, "kept", int, where):
            raise ModelFormatError(f"mask for {name!r} disagrees with its index")
        masks[name] = mask
    return masks
