"""On-disk formats: model directories, calibration sets, prune masks.

Model directory: ``manifest.json`` (format version "1": blocks, layer
specs, shapes, frozen flags, loss kind) plus one raw tensor file per
tensor — ``<layer>.bin`` for the weight and ``<layer>.bias.bin`` for the
optional bias — little-endian IEEE-754 float32, row-major, no header.
No two tensors of a model may share a file.  In memory everything is
float64; files quantize to float32.

Calibration file: ``<name>.json`` index listing each sample's input and
target shapes, the same for every sample, next to one ``.bin`` holding
the tensors concatenated in sample order with the same convention.

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
directory it was given.  Every file read is opened without blocking and
must be a regular file (not a FIFO, a device or a directory); a file an
index names must not be a symlink (``O_NOFOLLOW``; paths the user gives
may be), and a ``.bin`` file's size is checked before a byte is read.

Every write makes a new file: the name's old entry (an earlier run's
file, or a symlink, which is removed and never followed) is unlinked
first, and the file is created with ``O_EXCL``.  No output is truncated
in place or renamed over an old file, since on ext4 (``auto_da_alloc``)
replacing a file either way forces its new data out to disk at close or
rename, about three times the cost of writing a new file.  Inside
:func:`removed_on_failure` the created names are recorded, so a failed
run can remove exactly what it wrote.  :func:`save_model` and
:func:`save_masks` replace an earlier model or mask set: just before
their first write they remove the files its index names and they do not
write (another model's layers; see :func:`_remove_stale`).

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

import contextlib
import functools
import json
import math
import os
import re
import stat
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, ModelFormatError, NumericalError
from .model import Block, CalibrationSet, LayerSpec, ModelGraph, check_finite

FORMAT_VERSION = "1"
F32_CHUNK = 1 << 15  # elements per float32 conversion in _write_f32

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name) or name in (".", ".."):  # those two name a directory
        raise ModelFormatError(f"name {name!r} is not filesystem-safe")
    return name


_created: list[Path] | None = None  # the files made inside removed_on_failure


def _create(path: Path, mode: str = "xb", **kwargs):
    """A new file named path, open in mode, an "x" mode of open(): the
    name's old entry is unlinked (a symlink is not followed; a directory
    is an OSError), and O_EXCL (0o666 under the umask) makes a name that
    reappears in between an OSError too."""
    path.unlink(missing_ok=True)
    f = open(path, mode, **kwargs)
    if _created is not None:
        _created.append(path)
    return f


@contextlib.contextmanager
def removed_on_failure(*directories: Path):
    """Record every file created inside the block; if the block raises,
    unlink those files, then remove each of directories, in order, that
    is left empty.  A file the block did not create is left alone."""
    global _created
    outer, _created = _created, []
    try:
        yield
    except BaseException:
        for path in _created:
            with contextlib.suppress(OSError):  # the first error is the one to report
                path.unlink(missing_ok=True)
        for directory in directories:
            with contextlib.suppress(OSError):  # not empty, not a directory or absent
                directory.rmdir()
        raise
    finally:
        _created = outer


def write_json(obj: dict, path: str | Path) -> Path:
    """Write obj as sorted-key, indent-2 JSON with a trailing newline.

    The text goes to a new temporary file beside path (see :func:`_create`).
    Then path's old entry is unlinked and the temporary file renamed to
    path, so path never holds a partly written file, and no rename
    replaces a file (on ext4 that forces the new data out at once); a
    failed rename removes the temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with _create(tmp, "x", encoding="utf-8") as f:
        f.write(text)
    try:
        path.unlink(missing_ok=True)  # a directory at path fails here
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise
    if _created is not None:
        _created[-1] = path  # the temporary file _create recorded now has this name
    return path


def _open_regular(path: Path, size: int | None = None):
    """path open for unbuffered binary reads: a regular file, and if size is
    given, of size bytes and no symlink; anything else is a ModelFormatError.

    The open uses O_NONBLOCK, so a FIFO cannot block it, and the checks
    fstat the open descriptor, so the file read is the file checked.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | (0 if size is None else os.O_NOFOLLOW))
    except OSError as e:  # missing file, no permission, a symlink (ELOOP)
        raise ModelFormatError(f"cannot read {path}: {e.strerror}") from e
    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode):
        problem = "not a regular file"
    elif size is not None and st.st_size != size:
        problem = f"{st.st_size} bytes on disk, expected {size}"
    else:
        return open(fd, "rb", buffering=0)
    os.close(fd)
    raise ModelFormatError(f"{path}: {problem}")


def read_json(path: str | Path) -> dict:
    """Parse a JSON object; a missing, unreadable or non-object file, or one
    that is not a regular file, is a ModelFormatError."""
    try:
        with _open_regular(path) as f:
            obj = json.loads(f.read().decode("utf-8"))
    except OSError as e:  # a failed read
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
    """The count elements of dtype in path, a regular file of exactly their size."""
    with _open_regular(path, count * np.dtype(dtype).itemsize) as f:
        raw = np.fromfile(f, dtype=dtype, count=count)
    if raw.size != count:  # the file shrank after its size was checked
        raise ModelFormatError(f"{path}: shorter than its {count} elements")
    return raw


def _write_f32(f, arr: np.ndarray) -> None:
    """arr as row-major float32 to f, a file open for binary writing,
    converted F32_CHUNK elements at a time into one chunk-sized buffer,
    so a C-contiguous float64 arr costs one chunk of float32 past itself."""
    flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
    buf = np.empty(min(F32_CHUNK, flat.size), dtype="<f4")
    for i in range(0, flat.size, F32_CHUNK):
        chunk = buf[: flat.size - i]
        np.copyto(chunk, flat[i : i + F32_CHUNK], casting="same_kind")
        f.write(chunk)


def _read_f32(path: Path, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """The float32 tensor in path as dtype, once every value is found
    finite by the blocked :func:`coarsefine.model.check_finite`."""
    raw = _read_raw(path, "<f4", math.prod(shape))
    try:
        check_finite(raw)
    except NumericalError:
        raise ModelFormatError(f"{path}: non-finite values on disk") from None
    return raw.reshape(shape).astype(dtype, copy=False)  # float64: an array with no base


# -- model directories ------------------------------------------------------


def _claim(claimed: set[str], fname: str) -> str:
    """fname, which no other tensor of the model may use: a layer "X" with
    a bias and a layer named "X.bias" would both use "X.bias.bin"."""
    if fname in claimed:
        raise ModelFormatError(f"two tensors of the model map to {fname!r}")
    claimed.add(fname)
    return fname


def _tensor_files(name: str, has_bias: bool) -> list[str]:
    """The files of a model directory's layer: its weight's, then its bias's."""
    return [name + ".bin", name + ".bias.bin"][: 1 + has_bias]


def save_model(model: ModelGraph, directory: str | Path) -> Path:
    directory = Path(directory)
    manifest = {"format_version": FORMAT_VERSION, "head": model.head, "blocks": []}
    claimed: set[str] = set()
    tensors = []
    for block in model.blocks:
        entry = {"name": _check_name(block.name), "layers": []}
        for layer in block.layers:
            files = _tensor_files(_check_name(layer.name), layer.bias is not None)
            tensors += zip((_claim(claimed, f) for f in files), (layer.weight, layer.bias))
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
    _remove_stale(directory, "manifest.json", {fname for fname, _ in tensors})
    for fname, tensor in tensors:
        with _create(directory / fname) as f:
            _write_f32(f, tensor)
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
    data_file = _check_name(json_path.stem + ".bin")  # what load_calibration accepts
    json_path.parent.mkdir(parents=True, exist_ok=True)
    sample = {"input": list(batch.xs.shape[1:]), "target": list(batch.ys.shape[1:])}
    index = {"format_version": FORMAT_VERSION, "data_file": data_file,
             "samples": [sample] * batch.count}
    with _create(json_path.parent / data_file) as f:
        for x, y in zip(batch.xs, batch.ys):
            _write_f32(f, x)
            _write_f32(f, y)
    return write_json(index, json_path)


def load_calibration(json_path: str | Path) -> CalibrationSet:
    json_path = Path(json_path)
    index = read_json(json_path)
    check_version(index, "calibration index")
    data_file = _check_name(_field(index, "data_file", str, "calibration index"))
    entries = _field(index, "samples", list, "calibration index")
    shapes = {tuple(_shape(entry, key, "calibration sample") for key in ("input", "target"))
              for entry in entries}
    if len(shapes) > 1:
        raise ModelFormatError("calibration index: samples differ in shape")
    x_shape, y_shape = shapes.pop() if shapes else ((), ())  # no samples: an InputError below
    k, x_size = len(entries), math.prod(x_shape)
    data = _read_f32(json_path.parent / data_file, (k, x_size + math.prod(y_shape)), np.float32)
    # each column range converts to float64 once, straight into its stacked array
    return CalibrationSet.stacked(
        *(_reshape(cols, (k, *shape), "calibration sample").astype(np.float64, order="C")
          for cols, shape in ((data[:, :x_size], x_shape), (data[:, x_size:], y_shape))))


# -- masks -------------------------------------------------------------------


def _mask_file(name: str) -> str:
    """The file of a mask directory's layer."""
    return f"{name}.mask.bin"


def save_masks(masks: dict[str, np.ndarray], directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _remove_stale(directory, "masks.json", {_mask_file(name) for name in masks})
    index = {"format_version": FORMAT_VERSION, "bit_order": "msb_first", "layers": {}}
    for name in sorted(masks):
        _check_name(name)
        mask = np.ascontiguousarray(masks[name], dtype=bool)
        if mask.ndim != 2:
            raise DimensionError(f"mask for {name!r} must be 2-D")
        fname = _mask_file(name)
        with _create(directory / fname) as f:
            f.write(np.packbits(mask.reshape(-1)))
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


# -- stale outputs -----------------------------------------------------------


def _remove_stale(directory: Path, index: str, written: set[str]) -> None:
    """Unlink each file of directory that its index (a model's
    ``manifest.json`` or a ``masks.json``) names and written does not
    hold: what an earlier save of another model left there.  The index
    is read only when the directory holds such a file, so a rerun of the
    same model lists the directory and no more.  A directory that is a
    symlink, or whose index is missing, a symlink, or not one of the
    package's well-formed indexes naming filesystem-safe files, is left
    as it is; an unlink never follows a symlink."""
    try:
        extra = set(os.listdir(directory)) - written - {index}
    except OSError:  # absent, or not a directory
        return
    path = directory / index
    if not extra or directory.is_symlink() or path.is_symlink():
        return
    try:
        obj = read_json(path)
        check_version(obj, index)
        if index == "masks.json":
            named = [_field(e, "file", str, index)
                     for e in _field(obj, "layers", dict, index).values()]
        else:
            named = [f for b in _field(obj, "blocks", list, index)
                     for e in _field(b, "layers", list, index)
                     for f in _tensor_files(_field(e, "name", str, index),
                                            _field(e, "has_bias", bool, index))]
        stale = extra.intersection(_check_name(name) for name in named)
    except ModelFormatError:
        return
    for name in stale:
        with contextlib.suppress(OSError):  # gone already, or a directory
            (directory / name).unlink()
