import dataclasses
import hashlib
import json

import numpy as np
import pytest

from varimix.io import (
    load_abundances,
    load_endmember_field,
    load_image,
    load_library,
    load_scene,
    save_abundances,
    save_endmember_field,
    save_image,
    save_library,
    save_scene,
)
from varimix.types import (
    AbundanceMap,
    EndmemberField,
    FormatError,
    LibraryClass,
    SpectralImage,
    SpectralLibrary,
)

from conftest import make_scene


def test_image_round_trip(tmp_path, rng):
    img = SpectralImage(rng.uniform(-0.05, 1.2, size=(4, 6, 9)), name="rt")
    save_image(img, tmp_path / "img")
    back = load_image(tmp_path / "img")
    assert np.array_equal(back.data, img.data)
    assert back.name == "rt"


def test_image_payload_size_error(tmp_path, rng):
    img = SpectralImage(rng.uniform(0, 1, size=(2, 3, 10)), name="bad")
    header = save_image(img, tmp_path / "img")
    meta = json.loads(header.read_text())
    meta["bands"] = 9
    header.write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="payload"):
        load_image(header)


def test_image_malformed_header(tmp_path):
    (tmp_path / "x.json").write_text("{not json")
    (tmp_path / "x.bin").write_bytes(b"")
    with pytest.raises(FormatError):
        load_image(tmp_path / "x.json")


def test_library_round_trip(tmp_path, rng):
    lib = SpectralLibrary.from_arrays(
        ["veg", "dirt"],
        [rng.uniform(0, 1, size=(3, 7)), rng.uniform(0, 1, size=(2, 7))],
    )
    save_library(lib, tmp_path / "lib.csv")
    back = load_library(tmp_path / "lib.csv")
    assert back.class_names == ("veg", "dirt")
    for a, b in zip(lib.classes, back.classes):
        assert np.array_equal(a.signatures, b.signatures)


def test_library_header_required(tmp_path):
    (tmp_path / "x.csv").write_text("foo,b0,b1\n")
    with pytest.raises(FormatError):
        load_library(tmp_path / "x.csv")


def test_library_row_width_checked(tmp_path):
    (tmp_path / "x.csv").write_text("class,b0,b1\nveg,0.1\n")
    with pytest.raises(FormatError):
        load_library(tmp_path / "x.csv")


def test_library_file_rejects_negative(tmp_path):
    (tmp_path / "x.csv").write_text("class,b0,b1\nveg,0.1,-0.2\n")
    with pytest.raises(FormatError):
        load_library(tmp_path / "x.csv")


def test_library_writer_keeps_the_reader_rule(tmp_path):
    # what save_library writes, load_library reads: -0.1 is the floor of both
    ok = SpectralLibrary.from_arrays(["veg"], [np.array([[0.2, -0.1, 0.3]])])
    back = load_library(save_library(ok, tmp_path / "ok.csv"))
    assert np.array_equal(back.classes[0].signatures, ok.classes[0].signatures)
    low = SpectralLibrary.from_arrays(["veg"], [np.array([[0.2, -0.2, 0.3]])])
    with pytest.raises(FormatError, match="library value -0.2 is below the reflectance floor"):
        save_library(low, tmp_path / "low.csv")
    assert not (tmp_path / "low.csv").exists()


@pytest.mark.parametrize("bad", ["p,q", "a\nb", "a\r\nb", "a\x85b", "a\u2028b", "tail\n"])
def test_csv_writers_refuse_names_their_readers_would_split(tmp_path, rng, bad):
    lib = SpectralLibrary.from_arrays(["veg", bad], [rng.uniform(0, 1, size=(2, 3))] * 2)
    with pytest.raises(FormatError, match="holds a comma or a line break"):
        save_library(lib, tmp_path / "lib.csv")
    a = AbundanceMap(rng.dirichlet(np.ones(3), size=4), class_names=("veg", bad, "dirt"))
    with pytest.raises(FormatError, match="holds a comma or a line break"):
        save_abundances(a, tmp_path / "a.csv")
    assert not (tmp_path / "lib.csv").exists() and not (tmp_path / "a.csv").exists()


def test_empty_and_spaced_names_round_trip(tmp_path, rng):
    names = ("", "bare soil", " x ")
    lib = SpectralLibrary.from_arrays(names, [rng.uniform(0, 1, size=(2, 3))] * 3)
    assert load_library(save_library(lib, tmp_path / "lib.csv")).class_names == names
    a = AbundanceMap(rng.dirichlet(np.ones(3), size=4), class_names=names)
    back = load_abundances(save_abundances(a, tmp_path / "a.csv"))
    assert back.class_names == names and np.array_equal(back.data, a.data)


@pytest.mark.parametrize("name", ["", "  "])
def test_one_blank_class_name_round_trips(tmp_path, rng, name):
    # its header line is blank, and the reader takes it as the header
    a = AbundanceMap(np.ones((3, 1)), class_names=(name,))
    back = load_abundances(save_abundances(a, tmp_path / "a.csv"))
    assert back.class_names == (name,) and np.array_equal(back.data, a.data)


def test_library_writer_refuses_duplicate_class_names(tmp_path, rng):
    # the reader would merge the two classes into one
    lib = SpectralLibrary.from_arrays(["a", "a"], [rng.uniform(0, 1, size=(k, 3)) for k in (1, 2)])
    with pytest.raises(FormatError, match="class names must be distinct"):
        save_library(lib, tmp_path / "lib.csv")
    assert not (tmp_path / "lib.csv").exists()


def test_abundances_round_trip(tmp_path, rng):
    a = AbundanceMap(rng.dirichlet(np.ones(4), size=13), class_names=("a", "b", "c", "d"))
    save_abundances(a, tmp_path / "a.csv")
    back = load_abundances(tmp_path / "a.csv")
    assert np.array_equal(back.data, a.data)
    assert back.class_names == a.class_names


def test_scene_round_trip_bit_exact(tmp_path):
    truth = make_scene(snr_db=25.0, height=6, width=7)
    save_scene(truth, tmp_path / "scene")
    back = load_scene(tmp_path / "scene")
    assert np.array_equal(back.image_noisy.data, truth.image_noisy.data)
    assert np.array_equal(back.image_clean.data, truth.image_clean.data)
    assert np.array_equal(back.abundances.data, truth.abundances.data)
    assert np.array_equal(back.endmembers.data, truth.endmembers.data)
    assert back.seed == truth.seed and back.snr_db == truth.snr_db


_SCENE_FILES = ["image_noisy.json", "image_noisy.bin", "abundances.json", "abundances.bin",
                "endmember_table.json", "endmember_table.bin",
                "endmember_index.json", "endmember_index.bin"]


def test_scene_meta_has_digests(tmp_path):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    meta = json.loads((out / "truth_meta.json").read_text())
    assert "digests" in meta and "abundances.bin" in meta["digests"]


def test_scene_digests_are_those_of_the_written_files(tmp_path):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    digests = json.loads((out / "truth_meta.json").read_text())["digests"]
    assert list(digests) == _SCENE_FILES
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_scene_directory_holds_its_eight_files_and_the_meta(tmp_path):
    # no clean image (it is mixed again on load) and no CSV
    out = save_scene(make_scene(height=4, width=5), tmp_path / "scene")
    assert sorted(f.name for f in out.iterdir()) == sorted(_SCENE_FILES + ["truth_meta.json"])
    meta = json.loads((out / "truth_meta.json").read_text())
    assert {k: v for k, v in meta.items() if k != "digests"} == {
        "seed": 42, "snr_db": None, "height": 4, "width": 5, "bands": 40, "classes": 3,
        "class_names": ["material_0", "material_1", "material_2"], "clean_name": "scene_clean"}


@pytest.mark.parametrize("snr_db", [30.0, float("inf")], ids=["noisy", "noiseless"])
@pytest.mark.parametrize("shape", [(1, 5, 7), (4, 5, 40), (64, 64, 40)],
                         ids=["1x5x7", "4x5", "64x64"])
def test_scene_round_trips_every_member_and_name_bit_for_bit(tmp_path, shape, snr_db):
    h, w, bands = shape
    truth = make_scene(n_bands=bands, height=h, width=w, snr_db=snr_db)
    back = load_scene(save_scene(truth, tmp_path / "scene"))
    for member in ("image_noisy", "image_clean", "abundances", "endmembers"):
        assert _same_bits(getattr(back, member).data, getattr(truth, member).data), member
    assert back.image_noisy.name == truth.image_noisy.name == "scene_noisy"
    assert back.image_clean.name == truth.image_clean.name == "scene_clean"
    assert back.abundances.class_names == truth.abundances.class_names
    assert back.endmembers.table.tobytes() == truth.endmembers.table.tobytes()
    assert back.endmembers.index.tobytes() == truth.endmembers.index.tobytes()
    assert (back.seed, back.snr_db) == (truth.seed, truth.snr_db)


@pytest.mark.parametrize("name", ["image_noisy.bin", "abundances.json", "abundances.bin",
                                  "endmember_table.json", "endmember_table.bin",
                                  "endmember_index.json", "endmember_index.bin"])
def test_scene_load_rejects_one_flipped_byte(tmp_path, name):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    target = out / name
    raw = bytearray(target.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=name):
        load_scene(out)


def test_scene_field_is_saved_as_its_table_and_index(tmp_path):
    truth = make_scene(height=4, width=5)
    field = truth.endmembers
    out = save_scene(truth, tmp_path / "scene")
    assert _same_bits(load_endmember_field(out / "endmember_table", 40).data, field.table)
    assert np.array_equal(load_image(out / "endmember_index").data, field.index.reshape(1, 20, 1))
    back = load_scene(out).endmembers
    assert back.table.tobytes() == field.table.tobytes()
    assert back.index.tobytes() == field.index.tobytes()
    assert back.data.tobytes() == field.data.tobytes()


def test_save_scene_refuses_a_field_that_is_not_gathered(tmp_path):
    truth = make_scene(height=4, width=5)
    dense = dataclasses.replace(truth, endmembers=EndmemberField(truth.endmembers.data))
    with pytest.raises(FormatError, match="must be gathered"):
        save_scene(dense, tmp_path / "scene")
    assert not (tmp_path / "scene").exists()


def _rewrite(out, name, write):
    """Rewrite scene file ``name`` by ``write(path)`` and record its new digest."""
    write(out / name)
    meta = json.loads((out / "truth_meta.json").read_text())
    for n in (name, name.replace(".json", ".bin")):
        meta["digests"][n] = hashlib.sha256((out / n).read_bytes()).hexdigest()
    (out / "truth_meta.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("values, message", [
    (lambda i: i + 0.5, "index values must be integers$"),
    (lambda i: np.where(i == 0, 1e300, i), "index values must be integers$"),
    (lambda i: i - 1, r"EndmemberField index must lie in \[0, \d+\)$"),
    (lambda i: i + 1, r"EndmemberField index must lie in \[0, \d+\)$"),
    (lambda i: np.zeros_like(i), "EndmemberField index leaves a table row unused$"),
    (lambda i: i[:-1], "index is 1x19x1, the scene needs 1x20x1$"),
    (lambda i: np.concatenate([i, i]), "index is 1x40x1, the scene needs 1x20x1$"),
], ids=["half", "huge", "negative", "past-the-table", "unused-row", "short", "long"])
def test_load_scene_refuses_an_index_that_does_not_fit(tmp_path, values, message):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    index = truth.endmembers.index
    _rewrite(out, "endmember_index.json",
             lambda path: save_image(SpectralImage(values(index).reshape(1, -1, 1)), path))
    with pytest.raises(FormatError, match=f"^{out / 'endmember_index.json'}: {message}"):
        load_scene(out)


def test_load_scene_refuses_the_old_format_by_its_missing_file(tmp_path):
    # the field as one (N, L, P) payload, endmembers.json/.bin, is no longer read
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    for name in ("endmember_table", "endmember_index"):
        for suffix in (".json", ".bin"):
            (out / (name + suffix)).unlink()
    save_endmember_field(EndmemberField(truth.endmembers.data), out / "endmembers")
    with pytest.raises(FormatError, match="endmember_table.json: missing"):
        load_scene(out)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda meta: "{not json", "not JSON", id="not-json"),
    pytest.param(lambda meta: "[1, 2]", "expected an object", id="not-an-object"),
    *[pytest.param(lambda meta, k=k: json.dumps({x: v for x, v in meta.items() if x != k}),
                   f"missing key '{k}'", id=f"no-{k}")
      for k in ("seed", "bands", "height", "width", "classes", "class_names", "clean_name")],
    *[pytest.param(lambda meta, k=k, v=v: json.dumps({**meta, k: v}),
                   f"{k} must be an integer >= {least}, got {v!r}", id=f"{k}={v!r}")
      for k, v, least in (("bands", 0, 1), ("height", -4, 1), ("width", 5.0, 1),
                          ("bands", "40", 1), ("height", True, 1), ("seed", "42", 0),
                          ("classes", 0, 1))],
    pytest.param(lambda meta: json.dumps({**meta, "class_names": "abc"}),
                 "class_names must be a list of strings", id="class_names='abc'"),
    pytest.param(lambda meta: json.dumps({**meta, "class_names": [0, 1, 2]}),
                 "class_names must be a list of strings", id="class_names=[0, 1, 2]"),
    pytest.param(lambda meta: json.dumps({**meta, "clean_name": 5}),
                 "clean_name must be a string", id="clean_name=5"),
])
def test_load_scene_refuses_a_malformed_truth_meta(tmp_path, edit, message):
    out = save_scene(make_scene(height=4, width=5), tmp_path / "scene")
    meta = out / "truth_meta.json"
    meta.write_text(edit(json.loads(meta.read_text())))
    with pytest.raises(FormatError, match=f"^{meta}: {message}"):
        load_scene(out)


@pytest.mark.parametrize("values, message", [
    (lambda a: a[:, :-1], "abundances are 1x19x3, the scene needs 1x20x3$"),
    (lambda a: np.concatenate([a, a], axis=1), "abundances are 1x40x3, the scene needs 1x20x3$"),
    (lambda a: a.reshape(2, 10, 3), "abundances are 2x10x3, the scene needs 1x20x3$"),
    (lambda a: a * 1.1, "abundance row sum deviates from 1 by more than 1e-6$"),
    (lambda a: a - 0.01, r"abundance below -1e-09 \(not clampable noise\)$"),
], ids=["short", "long", "two-rows", "off-the-simplex", "negative"])
def test_load_scene_refuses_abundances_that_do_not_fit(tmp_path, values, message):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    cube = truth.abundances.data.reshape(1, 20, 3)
    _rewrite(out, "abundances.json", lambda path: save_image(SpectralImage(values(cube)), path))
    with pytest.raises(FormatError, match=f"^{out / 'abundances.json'}: {message}"):
        load_scene(out)


def test_load_scene_refuses_a_table_of_another_class_count(tmp_path):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    table = np.concatenate([truth.endmembers.table] * 2, axis=2)      # (C, 40, 6)
    _rewrite(out, "endmember_table.json",
             lambda path: save_endmember_field(EndmemberField(table), path))
    with pytest.raises(FormatError, match=f"^{out / 'endmember_table.json'}: matrices of 6 "
                                          "classes, the scene has 3$"):
        load_scene(out)


def test_load_scene_refuses_a_directory_with_a_clean_image_and_an_abundance_csv(tmp_path):
    # the layout that stored image_clean and abundances.csv is no longer read
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    for suffix in (".json", ".bin"):
        (out / ("abundances" + suffix)).unlink()
    save_image(truth.image_clean, out / "image_clean")
    save_abundances(truth.abundances, out / "abundances.csv")
    meta = json.loads((out / "truth_meta.json").read_text())
    for key in ("class_names", "clean_name"):
        del meta[key]
    names = ["image_noisy.json", "image_noisy.bin", "image_clean.json", "image_clean.bin",
             "abundances.csv"] + _SCENE_FILES[4:]
    meta["digests"] = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
    (out / "truth_meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="abundances.json: missing from the scene directory$"):
        load_scene(out)


@pytest.mark.parametrize("edit, message", [
    ({"bands": 41}, "the scene is 4x5x41, {noisy} is 4x5x40$"),
    ({"bands": 39}, "the scene is 4x5x39, {noisy} is 4x5x40$"),
    ({"height": 5, "width": 4}, "the scene is 5x4x40, {noisy} is 4x5x40$"),
    ({"classes": 7}, "3 class_names for 7 classes$"),
    ({"class_names": ["a", "b"]}, "2 class_names for 3 classes$"),
    ({"classes": 4, "class_names": list("abcd")}, "4 classes, {abundances} holds 3$"),
], ids=["bands+1", "bands-1", "height-width-swapped", "classes", "class-names", "both"])
def test_load_scene_refuses_a_meta_that_disagrees_with_its_files(tmp_path, edit, message):
    out = save_scene(make_scene(height=4, width=5), tmp_path / "scene")
    meta = out / "truth_meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), **edit}))
    message = message.format(noisy=out / "image_noisy.json", abundances=out / "abundances.json")
    with pytest.raises(FormatError, match=f"^{meta}: {message}"):
        load_scene(out)


@pytest.mark.parametrize("shape", [
    {"height": -1, "width": -2, "bands": 3},
    {"height": 2.0}, {"width": "3"}, {"bands": True},
], ids=["negative", "float", "string", "bool"])
def test_image_header_with_a_bad_shape_is_refused(tmp_path, shape):
    header = save_image(SpectralImage(np.full((2, 1, 3), 0.5)), tmp_path / "img")
    header.write_text(json.dumps({**json.loads(header.read_text()), **shape}))
    key = next(iter(shape))
    with pytest.raises(FormatError, match=f"^{header}: {key} must be an integer >= 0"):
        load_image(header)


def test_load_endmember_field_refuses_no_bands(tmp_path):
    header = save_endmember_field(EndmemberField(np.full((2, 3, 2), 0.5)), tmp_path / "f")
    with pytest.raises(ValueError, match="^n_bands must be >= 1, got 0$"):
        load_endmember_field(header, 0)


# values whose %.17g text is easy to get wrong: signed zero, the smallest
# subnormal, a huge value, a value with no short binary form, exact one
# (an AbundanceMap clips -0.0 to 0.0; a library keeps it)
_EDGE_VALUES = [-0.0, 5e-324, 1e300, 0.1, 1.0]


def _reference_rows(rows):
    return [",".join("%.17g" % v for v in row) for row in rows]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("p", [1, 3])
def test_abundance_bytes_match_per_value_format(tmp_path, rng, p):
    data = rng.uniform(0.0, 1.0, size=(7, p))
    data[: len(_EDGE_VALUES), 0] = _EDGE_VALUES
    a = AbundanceMap(data, sum_to_one=False, class_names=tuple(f"c{i}" for i in range(p)))
    path = save_abundances(a, tmp_path / "a.csv")
    expected = "\n".join([",".join(a.class_names)] + _reference_rows(a.data)) + "\n"
    assert path.read_text() == expected
    assert _same_bits(load_abundances(path, sum_to_one=False).data, a.data)


def test_library_bytes_match_per_value_format(tmp_path, rng):
    edge = np.array(_EDGE_VALUES + [0.5])
    lib = SpectralLibrary((
        LibraryClass("veg", np.stack([edge, rng.uniform(0.0, 1.0, 6)])),
        LibraryClass("50%_soil", edge[::-1][None, :]),   # a '%' in a class name
    ))
    path = save_library(lib, tmp_path / "lib.csv")
    lines = ["class,b0,b1,b2,b3,b4,b5"]
    for c in lib.classes:
        lines += [c.name + "," + row for row in _reference_rows(c.signatures)]
    assert path.read_text() == "\n".join(lines) + "\n"
    back = load_library(path)
    assert back.class_names == lib.class_names
    for a, b in zip(lib.classes, back.classes):
        assert _same_bits(a.signatures, b.signatures)


def test_single_column_library_bytes(tmp_path):
    lib = SpectralLibrary.from_arrays(["a"], [np.array([[0.1], [-0.0]])])
    path = save_library(lib, tmp_path / "lib.csv")
    assert path.read_text() == "class,b0\na,0.10000000000000001\na,-0\n"


def test_endmember_field_written_as_image(tmp_path, rng):
    field = EndmemberField(rng.uniform(0.0, 1.0, size=(6, 5, 3)))
    header = save_endmember_field(field, tmp_path / "field")
    ref = save_image(SpectralImage(field.data.reshape(1, 6, 15), name="endmembers"),
                     tmp_path / "ref")
    assert header.read_bytes() == ref.read_bytes()
    assert header.with_suffix(".bin").read_bytes() == ref.with_suffix(".bin").read_bytes()
    assert _same_bits(load_endmember_field(header, 5).data, field.data)


@pytest.mark.parametrize("row, message", [
    ("nan,1.0", "AbundanceMap.data contains NaN/Inf values"),
    ("-0.001,1.001", "abundance below -1e-09 (not clampable noise)"),
    ("0.5,0.6", "abundance row sum deviates from 1 by more than 1e-6"),
])
def test_abundances_refused_by_the_map_name_the_file(tmp_path, row, message):
    path = tmp_path / "a.csv"
    path.write_text(f"a,b\n0.5,0.5\n{row}\n")
    with pytest.raises(FormatError) as info:
        load_abundances(path)
    assert str(info.value) == f"{path}: {message}"


def test_abundances_ragged_row(tmp_path):
    (tmp_path / "a.csv").write_text("a,b\n0.5,0.5\n1.0\n")
    with pytest.raises(FormatError, match="row 2 has 1 values, header has 2"):
        load_abundances(tmp_path / "a.csv")
