"""File formats.

Images are stored as a JSON header plus a raw little-endian float64
payload, pixel-major (all L bands of pixel 0, then pixel 1, ...). The
payload is written straight from the array's buffer, without a bytes
copy; an endmember field, a result's per-pixel error and a scene's
abundances and field index are written the same way as 1 x N images
without being wrapped in a ``SpectralImage``. A scene stores its noisy
image and the factors its clean image is mixed from again on load: the
abundances, and the truth field gathered, as the table of the matrices
that occur and each pixel's row in it.
Libraries and result abundance maps are CSV with 17-significant-digit
floats so that save/load round trips are bit-exact. The whole table of a
file is formatted by one ``%`` operation whose template repeats ``%.17g``
once per value, which gives the same bytes as formatting value by value.
Text is written as UTF-8. A writer given ``digests`` records there the SHA-256
of each file's bytes by file name, hashed on the background worker as written.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from . import background
from .mixing import mix_forward
from .types import (AbundanceMap, EndmemberField, FormatError, LibraryClass, SceneTruth,
                    SpectralImage, SpectralLibrary, _Adopt)

_IMAGE_ORDER = "row-major band-interleaved-by-pixel"
_FLOAT_FMT = "%.17g"
_REFLECTANCE_FLOOR = -0.1


def _count(meta: dict, key: str, where, least: int = 0) -> int:
    """``meta[key]`` if it is an integer (not a bool) of at least ``least``,
    else ``FormatError`` naming ``where``."""
    value = meta[key]
    if type(value) is not int or value < least:
        raise FormatError(f"{where}: {key} must be an integer >= {least}, got {value!r}")
    return value


def _header_path(path) -> Path:
    p = Path(path)
    return p if p.suffix == ".json" else p.with_suffix(p.suffix + ".json")


def _payload_path(header: Path) -> Path:
    return header.with_suffix(".bin")


def _write_bytes(path: Path, blocks, digests: Optional[dict]):
    """Write bytes or contiguous buffers in turn, each hashed into ``digests`` as it is written."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for block in blocks:
            if digests is not None:
                background.submit(digest.update, block)
            f.write(block)
        if digests is not None:
            background.submit(lambda: digests.__setitem__(path.name, digest.hexdigest()))


def _write_cube(path, shape, blocks, name: str, digests: Optional[dict] = None) -> Path:
    """Write an (H, W, L) array as header (``<path>.json``) and payload
    (``<path>.bin``), the buffers of ``blocks``, its consecutive parts."""
    header = _header_path(path)
    header.parent.mkdir(parents=True, exist_ok=True)
    h, w, l = shape
    meta = {"name": name, "height": h, "width": w, "bands": l, "dtype": "f64",
            "order": _IMAGE_ORDER}
    _write_bytes(header, [(json.dumps(meta, indent=1) + "\n").encode()], digests)
    _write_bytes(_payload_path(header),
                 (memoryview(np.ascontiguousarray(b, dtype="<f8")) for b in blocks), digests)
    return header


def save_image(image: SpectralImage, path, digests: Optional[dict] = None) -> Path:
    """Write header (``<path>.json``) and payload (``<path>.bin``)."""
    return _write_cube(path, image.data.shape, [image.data], image.name, digests)


def load_image(path) -> SpectralImage:
    header = _header_path(path)
    try:
        meta = json.loads(header.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed image header {header}: {exc}") from exc
    for key in ("name", "height", "width", "bands", "dtype", "order"):
        if key not in meta:
            raise FormatError(f"image header {header} missing key {key!r}")
    if meta["dtype"] != "f64" or meta["order"] != _IMAGE_ORDER:
        raise FormatError(f"unsupported dtype/order in {header}")
    h, w, l = (_count(meta, key, header) for key in ("height", "width", "bands"))
    payload = _payload_path(header)
    size, expected = payload.stat().st_size, h * w * l * 8
    if size != expected:
        raise FormatError(f"payload size {size} bytes does not match header "
                          f"({h}x{w}x{l} float64 = {expected} bytes)")
    data = np.fromfile(payload, dtype="<f8").reshape(h, w, l)
    try:
        return SpectralImage(_Adopt(data), name=str(meta["name"]))
    except ValueError as exc:           # the image's finiteness check
        raise FormatError(f"non-finite values in image payload {header}") from exc


def _write_csv(path, header: str, values: np.ndarray, labels=None) -> Path:
    """Write ``header`` and one line per row of ``values``: the row's
    values as ``%.17g`` joined by commas, led by ``label,`` when labels
    are given. One ``%`` call formats the whole file."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    n, m = values.shape
    row = ",".join([_FLOAT_FMT] * m)
    if labels is None:
        rows = [row] * n
    else:
        rows = [label.replace("%", "%%") + "," + row for label in labels]
    template = "\n".join([header.replace("%", "%%")] + rows) + "\n"
    _write_bytes(p, [(template % tuple(values.ravel().tolist())).encode()], None)
    return p


def _check_reflectance(values: np.ndarray, path):
    """The rule a library file's values keep, checked by its writer and
    its reader alike: finite reflectance, no value below
    ``_REFLECTANCE_FLOOR``. Extracted bundles are raw image pixels, so a
    little noise below zero is allowed."""
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: library values must be finite")
    low = values.min(initial=np.inf)
    if low < _REFLECTANCE_FLOOR:
        raise FormatError(f"{path}: library value {low:.6g} is below the reflectance floor "
                          f"{_REFLECTANCE_FLOOR:g}")


def _check_names(names, path):
    """Refuse a class name that the CSV readers would split: one holding a
    comma or a line break (anything ``str.splitlines`` splits on)."""
    for name in names:
        if "," in name or "".join(name.splitlines()) != name:
            raise FormatError(f"{path}: class name {name!r} holds a comma or a line break")


def save_library(library: SpectralLibrary, path) -> Path:
    """Write ``library`` as CSV; a library that ``load_library`` would
    refuse, split or merge (values, class names) is not written
    (``FormatError``)."""
    header = "class," + ",".join(f"b{i}" for i in range(library.n_bands))
    values, labels = library.flatten()
    _check_reflectance(values, path)
    _check_names(library.class_names, path)
    if len(set(library.class_names)) < library.n_classes:       # the reader would merge them
        raise FormatError(f"{path}: class names must be distinct")
    names = [library.class_names[k] for k in labels]
    return _write_csv(path, header, values, names)


def load_library(path) -> SpectralLibrary:
    p = Path(path)
    lines = [ln for ln in p.read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("class,"):
        raise FormatError(f"{p}: expected 'class,b0,...' header")
    n_bands = len(lines[0].split(",")) - 1
    rows: dict[str, list[np.ndarray]] = {}             # classes in order of appearance
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n_bands + 1:
            raise FormatError(f"{p}: row has {len(parts) - 1} bands, header says {n_bands}")
        name = parts[0]
        try:
            sig = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise FormatError(f"{p}: non-numeric value in row for {name!r}") from exc
        _check_reflectance(sig, p)
        rows.setdefault(name, []).append(sig)
    if not rows:
        raise FormatError(f"{p}: library has no signatures")
    return SpectralLibrary(tuple(LibraryClass(n, np.stack(s)) for n, s in rows.items()))


def save_abundances(abundances: AbundanceMap, path) -> Path:
    names = abundances.names_or_default()
    _check_names(names, path)
    return _write_csv(path, ",".join(names), abundances.data)


def load_abundances(path, sum_to_one: bool = True) -> AbundanceMap:
    """Read an abundance CSV; a file that is no valid map raises ``FormatError``."""
    p = Path(path)
    lines = p.read_text().splitlines()
    if not lines:
        raise FormatError(f"{p}: empty abundance file")
    names = tuple(lines[0].split(","))          # verbatim: one class may be named ""
    rows = [ln.split(",") for ln in lines[1:] if ln.strip()]
    for i, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise FormatError(f"{p}: row {i} has {len(row)} values, header has {len(names)}")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise FormatError(f"{p}: non-numeric abundance value") from exc
    if data.ndim != 2 or data.shape[1] != len(names):
        raise FormatError(f"{p}: rows do not match the {len(names)}-column header")
    try:
        return AbundanceMap(data, sum_to_one=sum_to_one, class_names=names)
    except ValueError as exc:           # the map's value checks
        raise FormatError(f"{p}: {exc}") from exc


def save_endmember_field(field: EndmemberField, path, digests: Optional[dict] = None) -> Path:
    """Store an endmember field as a 1 x N image with L*P bands.

    Per pixel the L x P matrix is flattened in C order (class index
    fastest); the loader needs the band count to split them again. The
    field is written from its ``blocks``: a dense field in one buffer, a
    factored one ``_CHUNK_ROWS`` pixels at a time, never built whole.
    """
    n, l, p = field.shape
    return _write_cube(path, (1, n, l * p), field.blocks(), "endmembers", digests)


def load_endmember_field(path, n_bands: int) -> EndmemberField:
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    img = load_image(path)
    total = img.n_bands
    if total % n_bands != 0:
        raise FormatError(f"{path}: {total} values per pixel not divisible by L={n_bands}")
    p = total // n_bands
    return EndmemberField(_Adopt(img.pixels.reshape(img.n_pixels, n_bands, p)))


def save_result(result, out) -> Path:
    """Write a solver result into directory ``out``: ``abundances.csv``,
    ``abundances_raw.csv`` when the solver kept raw abundances, the
    per-pixel RMS error as a 1 x N image ``re``, ``endmembers`` when the
    result has a field, and ``solver_log.json``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_abundances(result.abundances, out / "abundances.csv")
    if result.raw_abundances is not None:
        save_abundances(result.raw_abundances, out / "abundances_raw.csv")
    _write_cube(out / "re", (1, len(result.per_pixel_re), 1), [result.per_pixel_re], "re")
    if result.endmembers is not None:
        save_endmember_field(result.endmembers, out / "endmembers")
    log = json.dumps(dataclasses.asdict(result.solver_log), default=str) + "\n"
    _write_bytes(out / "solver_log.json", [log.encode()], None)
    return out


# A scene directory's files, in the order truth_meta.json lists their digests
_SCENE_FILES = ("image_noisy.json", "image_noisy.bin", "abundances.json", "abundances.bin",
                "endmember_table.json", "endmember_table.bin",
                "endmember_index.json", "endmember_index.bin")


def save_scene(truth: SceneTruth, out_dir) -> Path:
    """Write the noisy image and the factors the clean image is mixed
    from: the abundances as a 1 x N x P cube, and the gathered truth
    field, as its table of C matrices (``endmember_table``, written by
    ``save_endmember_field``) and its per-pixel row in that table
    (``endmember_index``, a 1 x N one-band image); then truth_meta.json
    with the shapes, the class names, the clean image's name and the
    SHA-256 digest of every file. The clean image is not written:
    ``load_scene`` mixes it again. A field in another form is not written
    (``FormatError``)."""
    field = truth.endmembers
    if field.index is None:
        raise FormatError(f"{out_dir}: a scene's truth field must be gathered "
                          "(EndmemberField.gathered)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = dict.fromkeys(_SCENE_FILES)
    n, p = truth.abundances.data.shape
    with background.overlap():
        save_image(truth.image_noisy, out / "image_noisy", digests)
        _write_cube(out / "abundances", (1, n, p), [truth.abundances.data], "abundances",
                    digests)
        save_endmember_field(EndmemberField(_Adopt(field.table)), out / "endmember_table",
                             digests)
        _write_cube(out / "endmember_index", (1, n, 1), [field.index], "endmember_index",
                    digests)
    img = truth.image_clean
    meta = {"seed": int(truth.seed),
            "snr_db": None if math.isinf(truth.snr_db) else float(truth.snr_db),
            "height": img.height, "width": img.width, "bands": img.n_bands, "classes": p,
            "class_names": list(truth.abundances.names_or_default()), "clean_name": img.name,
            "digests": digests}
    (out / "truth_meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return out


def _scene_meta(path: Path) -> dict:
    """truth_meta.json: an object with a nonnegative integer ``seed``,
    positive integer ``height``, ``width``, ``bands`` and ``classes``, a
    list of ``classes`` strings ``class_names``, a string ``clean_name``
    and, if present, an object of ``digests``; anything else is one
    ``FormatError`` naming it."""
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("digests", {}), dict):
        raise FormatError(f"{path}: expected an object with an object of digests")
    for key in ("seed", "height", "width", "bands", "classes", "class_names", "clean_name"):
        if key not in meta:
            raise FormatError(f"{path}: missing key {key!r}")
    for key in ("seed", "height", "width", "bands", "classes"):
        _count(meta, key, path, least=0 if key == "seed" else 1)
    names = meta["class_names"]
    if not (isinstance(names, list) and all(isinstance(c, str) for c in names)):
        raise FormatError(f"{path}: class_names must be a list of strings")
    if len(names) != meta["classes"]:
        raise FormatError(f"{path}: {len(names)} class_names for {meta['classes']} classes")
    if not isinstance(meta["clean_name"], str):
        raise FormatError(f"{path}: clean_name must be a string")
    return meta


def _dims(shape) -> str:
    return "x".join(map(str, shape))


def _load_index(header: Path, n: int, table: np.ndarray) -> EndmemberField:
    """The gathered field of ``table`` and the index image ``header``:
    n integral values, each a used row of the table, or ``FormatError``
    naming the file."""
    values = load_image(header).data
    if values.shape != (1, n, 1):
        raise FormatError(f"{header}: index is {_dims(values.shape)}, "
                          f"the scene needs 1x{n}x1")
    values = values.ravel()
    with np.errstate(invalid="ignore"):         # a huge value casts to garbage, refused below
        index = values.astype(np.intp)
    if not np.array_equal(index, values):
        raise FormatError(f"{header}: index values must be integers")
    try:
        return EndmemberField.gathered(_Adopt(table), index)
    except ValueError as exc:
        raise FormatError(f"{header}: {exc}") from exc


def load_scene(scene_dir) -> SceneTruth:
    """Read a directory written by ``save_scene``, after checking every
    artifact against the SHA-256 digest recorded in truth_meta.json, and
    mix the clean image again as ``synthesize_scene`` does
    (``mix_forward`` of the field and the abundances), under its saved
    name; ``SceneTruth`` checks that mixture once more. A missing file, a
    malformed truth_meta.json or one whose shapes or classes disagree with
    the noisy image and the abundances, abundances of the wrong shape or
    off the simplex, and an index that does not fit the table or the scene
    are refused (``FormatError``, naming the file). Every member comes back
    bit for bit as saved, the field gathered."""
    d = Path(scene_dir)
    meta_path = d / "truth_meta.json"
    for name in ("truth_meta.json",) + _SCENE_FILES:
        if not (d / name).is_file():
            raise FormatError(f"{d / name}: missing from the scene directory")
    meta = _scene_meta(meta_path)
    for name, digest in meta.get("digests", {}).items():
        with open(d / name, "rb") as f:
            if hashlib.file_digest(f, "sha256").hexdigest() != digest:
                raise FormatError(f"{d / name}: SHA-256 digest does not match truth_meta.json")
    h, w, l, p = meta["height"], meta["width"], meta["bands"], meta["classes"]
    noisy = load_image(d / "image_noisy")
    if noisy.data.shape != (h, w, l):
        raise FormatError(f"{meta_path}: the scene is {_dims((h, w, l))}, "
                          f"{d / 'image_noisy.json'} is {_dims(noisy.data.shape)}")
    header = d / "abundances.json"
    cube = load_image(header).data
    if cube.shape[:2] != (1, h * w):
        raise FormatError(f"{header}: abundances are {_dims(cube.shape)}, "
                          f"the scene needs 1x{h * w}x{p}")
    if cube.shape[2] != p:
        raise FormatError(f"{meta_path}: {p} classes, {header} holds {cube.shape[2]}")
    try:
        abundances = AbundanceMap(cube[0], class_names=meta["class_names"])
    except ValueError as exc:           # the map's value checks
        raise FormatError(f"{header}: {exc}") from exc
    table = load_endmember_field(d / "endmember_table", l).data
    if table.shape[2] != p:
        raise FormatError(f"{d / 'endmember_table.json'}: matrices of {table.shape[2]} "
                          f"classes, the scene has {p}")
    field = _load_index(d / "endmember_index.json", h * w, table)
    snr = meta.get("snr_db")
    return SceneTruth(
        image_noisy=noisy,
        image_clean=mix_forward(field, abundances, shape=(h, w), name=meta["clean_name"]),
        abundances=abundances,
        endmembers=field,
        snr_db=math.inf if snr is None else float(snr),
        seed=meta["seed"],
    )


def load_config(cls, doc, path: str = ""):
    """Build the config dataclass ``cls`` from the parsed JSON ``doc`` by
    its field annotations: nested dataclasses, ``Optional[X]`` and
    ``tuple[X, ...]``; a float field takes an integer, a missing field its
    default. An unknown or missing key, a value of the wrong JSON type, or
    one the constructor refuses raises ``FormatError`` naming the key path
    (``path`` is the path of ``doc`` itself)."""
    where = path or "config"
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is typing.Union:                          # Optional[X]
        return None if doc is None else load_config(args[0], doc, path)
    if origin is tuple:                                 # tuple[X, ...]
        if not isinstance(doc, (list, tuple)):
            raise FormatError(f"{where}: expected an array, got {type(doc).__name__}")
        return tuple(load_config(args[0], v, f"{where}[{i}]") for i, v in enumerate(doc))
    if not dataclasses.is_dataclass(cls):
        if cls is float and type(doc) is int:
            return float(doc)
        if type(doc) is not cls:
            raise FormatError(f"{where}: expected {cls.__name__}, got {type(doc).__name__}")
        return doc
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object, got {type(doc).__name__}")
    prefix = path + "." if path else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(doc.keys() - fields.keys())
    if unknown:
        raise FormatError(f"{prefix}{unknown[0]}: unknown key")
    for key, f in fields.items():
        if key not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise FormatError(f"{prefix}{key}: missing required key")
    types = typing.get_type_hints(cls)
    kwargs = {k: load_config(types[k], v, prefix + k) for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def resolve_image(path) -> SpectralImage:
    """Load an image from a header path or from a scene directory
    (in which case the noisy image is returned)."""
    p = Path(path)
    if p.is_dir():
        return load_image(p / "image_noisy")
    return load_image(p)
