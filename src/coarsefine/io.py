"""On-disk formats: model directories, calibration sets, prune masks.

Model directory: ``manifest.json`` (format version "1": blocks, layer
specs, shapes, frozen flags, loss kind) plus one raw tensor file per
tensor — ``<layer>.bin`` for the weight and ``<layer>.bias.bin`` for the
optional bias — little-endian IEEE-754 float32, row-major, no header.
No two tensors of a model may share a file.  In memory everything is
float64; files quantize to float32.

Calibration file: ``<name>.json`` index listing per-sample input/target
shapes next to one ``.bin`` holding the tensors concatenated in sample
order with the same binary convention.

Masks: ``<layer>.mask.bin`` packed bits (row-major, MSB-first within a
byte, as the index's ``bit_order`` must say, zero padding) plus a
``masks.json`` index.  Each ``.bin`` file is exactly as long as its
index implies: 4 bytes a float, ``ceil(n / 8)`` bytes for an n-bit mask.

Every JSON file the package writes (these indexes, score maps, plans,
reports) goes through :func:`write_json`: sorted keys, indent 2, a
trailing newline, under the one ``FORMAT_VERSION`` (:func:`check_version`).
Every JSON file it reads goes through :func:`read_json`, and the loaders
check each field's type and every name or file they name, so a malformed
or tampered file is a ``ModelFormatError`` and no read leaves the
directory it was given.

Every field a writer writes must be present when its file is read back;
only a ``--config`` file may omit fields (``RunConfig.from_json`` fills in
the defaults).  A dataclass record is read by :func:`read_record` under
its field annotations: ``float`` takes any JSON number but a bool or NaN,
within the float range (Infinity stays: a perplexity can overflow);
``int`` and ``str`` take exactly that type; ``X | None`` takes null too;
``dict[str, X]`` values and nested dataclasses are read in turn; keys
that name no field are ignored.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, ModelFormatError
from .model import Block, CalibrationSet, LayerSpec, ModelGraph

FORMAT_VERSION = "1"

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ModelFormatError(f"name {name!r} is not filesystem-safe")
    return name


def write_json(obj: dict, path: str | Path) -> Path:
    """Write obj as sorted-key, indent-2 JSON with a trailing newline.

    The text goes to a temporary file beside path and is then renamed
    over it, so path never holds a partly written file; a failed rename
    removes the temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    try:
        os.replace(tmp, path)
    except OSError:  # path is a directory, say
        tmp.unlink()
        raise
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


def _field(obj, key: str, kind: type, where: str):
    """obj[key], which must have type kind, a type or a tuple of types
    (bool is not an int here)."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    value = obj.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        name = getattr(kind, "__name__", "number")
        raise ModelFormatError(f"{where}: field {key!r} must be a {name}")
    return value


def check_version(obj, what: str) -> None:
    """obj's "format_version" must be the one this package writes."""
    version = _field(obj, "format_version", str, what)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported {what} format version {version!r}")


_hints = functools.cache(typing.get_type_hints)  # cli.main reads a RunConfig per call


def _value(obj: dict, key: str, hint, where: str):
    """obj[key] read under the annotation hint (see the module docstring)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is dict:
        entries = _field(obj, key, dict, where)
        return {k: _value(entries, k, args[1], f"{where} {key}") for k in entries}
    if is_dataclass(hint):
        return read_record(hint, _field(obj, key, dict, where), f"{where} {key!r}")
    if args:  # X | None; a missing key falls through to X's error
        return None if obj.get(key, ...) is None else _value(obj, key, args[0], where)
    if hint is not float:
        return _field(obj, key, hint, where)
    try:
        value = float(_field(obj, key, (int, float), where))
    except OverflowError as e:  # an integer past the float range
        raise ModelFormatError(f"{where}: field {key!r} is out of range") from e
    if math.isnan(value):
        raise ModelFormatError(f"{where}: field {key!r} is NaN")
    return value


def read_record(cls, obj, where: str):
    """The dataclass cls from the JSON object obj, every field (default or not) from the key
    its "json" metadata names, or its name; a missing or bad field is a ModelFormatError."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    hints = _hints(cls)
    return cls(**{f.name: _value(obj, f.metadata.get("json") or f.name, hints[f.name], where)
                  for f in fields(cls)})


def _shape(obj, key: str, where: str) -> tuple[int, ...]:
    dims = _field(obj, key, list, where)
    if not all(isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in dims):
        raise ModelFormatError(f"{where}: {key!r} must list nonnegative integers")
    return tuple(dims)


def _reshape(flat: np.ndarray, shape: tuple[int, ...], where: str) -> np.ndarray:
    try:
        return flat.reshape(shape)
    except ValueError as e:  # no elements, but more or larger dims than numpy allows
        raise ModelFormatError(f"{where}: numpy cannot hold an array of that shape") from e


def _read_raw(path: Path, dtype: str, count: int) -> np.ndarray:
    """The count elements of dtype in path, a file of exactly their size."""
    if not path.is_file():
        raise ModelFormatError(f"missing data file {path}")
    raw, expected = np.fromfile(path, dtype="u1"), count * np.dtype(dtype).itemsize
    if raw.size != expected:
        raise ModelFormatError(f"{path}: {raw.size} bytes on disk, expected {expected}")
    return raw.view(dtype)


def _write_f32(path, arr: np.ndarray) -> None:
    """arr as float32 to path, a Path or a file open for binary writing."""
    np.ascontiguousarray(arr, dtype=np.float64).astype("<f4").tofile(path)


def _read_f32(path: Path, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    raw = _read_raw(path, "<f4", math.prod(shape))
    if not np.all(np.isfinite(raw)):
        raise ModelFormatError(f"{path}: non-finite values on disk")
    return raw.reshape(shape).astype(dtype, copy=False)  # float64: an array with no base


# -- model directories ------------------------------------------------------


def _claim(claimed: set[str], fname: str) -> str:
    """fname, which no other tensor of the model may use: a layer "X" with
    a bias and a layer named "X.bias" would both use "X.bias.bin"."""
    if fname in claimed:
        raise ModelFormatError(f"two tensors of the model map to {fname!r}")
    claimed.add(fname)
    return fname


def save_model(model: ModelGraph, directory: str | Path) -> Path:
    directory = Path(directory)
    manifest = {"format_version": FORMAT_VERSION, "head": model.head, "blocks": []}
    claimed: set[str] = set()
    tensors = []
    for block in model.blocks:
        entry = {"name": _check_name(block.name), "layers": []}
        for layer in block.layers:
            tensors.append((_claim(claimed, _check_name(layer.name) + ".bin"), layer.weight))
            if layer.bias is not None:
                tensors.append((_claim(claimed, f"{layer.name}.bias.bin"), layer.bias))
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
        manifest["blocks"].append(entry)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, tensor in tensors:
        _write_f32(directory / fname, tensor)
    write_json(manifest, directory / "manifest.json")
    return directory


def load_model(directory: str | Path) -> ModelGraph:
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    check_version(manifest, "manifest")
    blocks = []
    claimed: set[str] = set()
    for bentry in _field(manifest, "blocks", list, "manifest"):
        bname = _check_name(_field(bentry, "name", str, "manifest block"))
        layers = []
        for lentry in _field(bentry, "layers", list, f"block {bname!r}"):
            name = _check_name(_field(lentry, "name", str, f"block {bname!r} layer"))
            where = f"layer {name!r}"
            shape = _shape(lentry, "shape", where)
            if len(shape) != 2 or 0 in shape:
                raise ModelFormatError(f"{where}: shape must be two positive integers")
            weight = _read_f32(directory / _claim(claimed, name + ".bin"), shape)
            bias = None
            if _field(lentry, "has_bias", bool, where):
                bias = _read_f32(directory / _claim(claimed, f"{name}.bias.bin"), (shape[0],))
            layers.append(
                LayerSpec(
                    name=name,
                    kind=_field(lentry, "kind", str, where),
                    weight=weight,
                    bias=bias,
                    activation=_field(lentry, "activation", str, where),
                    frozen=_field(lentry, "frozen", bool, where),
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
            _write_f32(f, x)
            _write_f32(f, y)
    return write_json(index, json_path)


def load_calibration(json_path: str | Path) -> CalibrationSet:
    json_path = Path(json_path)
    index = read_json(json_path)
    check_version(index, "calibration index")
    data_file = _check_name(_field(index, "data_file", str, "calibration index"))
    shapes = [_shape(entry, key, "calibration sample")
              for entry in _field(index, "samples", list, "calibration index")
              for key in ("input", "target")]
    data = _read_f32(json_path.parent / data_file, (sum(map(math.prod, shapes)),), np.float32)
    tensors, offset = [], 0
    for shape in shapes:  # float32 views into the block, in file order
        size = math.prod(shape)
        tensors.append(_reshape(data[offset : offset + size], shape, "calibration sample"))
        offset += size
    # stacking converts each sample to float64 once, into the stacked arrays
    return CalibrationSet(list(zip(tensors[::2], tensors[1::2])))


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
            "kept": int(np.count_nonzero(mask)),
        }
    write_json(index, directory / "masks.json")
    return directory


def load_masks(directory: str | Path) -> dict[str, np.ndarray]:
    directory = Path(directory)
    index = read_json(directory / "masks.json")
    check_version(index, "mask index")
    if index.get("bit_order") != "msb_first":
        raise ModelFormatError(f"unsupported mask bit order {index.get('bit_order')!r}")
    masks = {}
    for name, entry in _field(index, "layers", dict, "mask index").items():
        where = f"mask {name!r}"
        shape = _shape(entry, "shape", where)
        n = math.prod(shape)
        path = directory / _check_name(_field(entry, "file", str, where))
        bits = np.unpackbits(_read_raw(path, "u1", -(-n // 8)))  # ceil(n / 8) bytes
        if bits[n:].any():
            raise ModelFormatError(f"mask file for {name!r} has nonzero padding bits")
        mask = _reshape(bits[:n].astype(bool), shape, where)
        if int(np.count_nonzero(mask)) != _field(entry, "kept", int, where):
            raise ModelFormatError(f"mask for {name!r} disagrees with its index")
        masks[name] = mask
    return masks
