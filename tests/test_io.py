import json

import numpy as np
import pytest

from varimix.io import (
    load_abundances,
    load_image,
    load_library,
    load_scene,
    save_abundances,
    save_image,
    save_library,
    save_scene,
)
from varimix.types import AbundanceMap, FormatError, SpectralImage, SpectralLibrary

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


def test_scene_meta_has_digests(tmp_path):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    meta = json.loads((out / "truth_meta.json").read_text())
    assert "digests" in meta and "abundances.csv" in meta["digests"]


@pytest.mark.parametrize("name", ["image_noisy.bin", "abundances.csv", "endmembers.json"])
def test_scene_load_rejects_one_flipped_byte(tmp_path, name):
    truth = make_scene(height=4, width=5)
    out = save_scene(truth, tmp_path / "scene")
    target = out / name
    raw = bytearray(target.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    target.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=name):
        load_scene(out)
