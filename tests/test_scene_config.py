import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from varimix.bench import BenchConfig, RosterEntry
from varimix.io import load_config
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    SceneConfig,
    VariabilityConfig,
)
from varimix.types import FormatError

ROOT = Path(__file__).resolve().parents[1]


def _full_config():
    return SceneConfig(
        height=20, width=30, base_library="base.csv",
        abundance=AbundanceFieldConfig(generator="grf", correlation_length=4,
                                       sharpness=0.1, pure_pixel_fraction=0.05),
        variability=VariabilityConfig(class_modes=(
            ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.7, 0.9)),
            ClassVariability("atmospheric", mu1_range=(0.4, 1.0), mu2=0.95,
                             e_sun=1.2, e_sky=0.3),
            ClassVariability("glmm_scaling", scale_range=(0.8, 1.3),
                             band_smoothing=4.0)),
            n_variants=4, seed=9),
        snr_db=25.0, seed=3, name="roundtrip")


def _minimal_doc():
    return {"height": 4, "width": 5, "base_library": "b.csv",
            "abundance": {"generator": "grf", "correlation_length": 3},
            "variability": {"class_modes": [{"mode": "none"}, {"mode": "none"}]}}


def test_scene_config_dict_round_trip():
    cfg = _full_config()
    doc = json.loads(json.dumps(cfg.to_dict()))
    back = load_config(SceneConfig, doc)
    assert back == cfg


def test_noiseless_encoded_as_null():
    cfg = SceneConfig(
        height=8, width=8, base_library="b.csv",
        abundance=AbundanceFieldConfig(generator="dirichlet", alpha=(1.0, 1.0)),
        variability=VariabilityConfig(class_modes=(
            ClassVariability("none"), ClassVariability("none"))),
        snr_db=None)
    doc = cfg.to_dict()
    assert doc["snr_db"] is None
    assert load_config(SceneConfig, doc).snr_db is None


def test_float_fields_take_integers_and_defaults_fill_in():
    cfg = load_config(SceneConfig, _minimal_doc())
    ab = cfg.abundance
    assert type(ab.correlation_length) is float and ab.correlation_length == 3.0
    assert cfg.snr_db == 30.0 and cfg.seed == 0 and cfg.name == "scene"
    assert cfg.variability.class_modes == (ClassVariability("none"),) * 2
    doc = _minimal_doc()
    doc["variability"]["class_modes"][0] = {"mode": "elmm_scaling", "scale_range": [1, 2]}
    modes = load_config(SceneConfig, doc).variability.class_modes
    assert modes[0].scale_range == (1.0, 2.0)
    assert all(type(v) is float for v in modes[0].scale_range)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(colour="red"), r"^colour: unknown key$"),
    (lambda d: d["abundance"].update(corr_len=3), r"^abundance\.corr_len: unknown key$"),
    (lambda d: d["variability"]["class_modes"][1].update(scale=2),
     r"^variability\.class_modes\[1\]\.scale: unknown key$"),
    (lambda d: d.pop("abundance"), r"^abundance: missing required key$"),
    (lambda d: d["variability"]["class_modes"][0].pop("mode"),
     r"^variability\.class_modes\[0\]\.mode: missing required key$"),
    (lambda d: d.update(height=4.0), r"^height: expected int, got float$"),
    (lambda d: d.update(height=True), r"^height: expected int, got bool$"),
    (lambda d: d.update(snr_db="30"), r"^snr_db: expected float, got str$"),
    (lambda d: d.update(variability=[]), r"^variability: expected an object, got list$"),
    (lambda d: d["variability"].update(class_modes={}),
     r"^variability\.class_modes: expected an array, got dict$"),
    (lambda d: d["abundance"].update(generator="perlin"),
     r"^abundance: unknown abundance generator 'perlin'$"),
    (lambda d: d["variability"]["class_modes"][0].update(mode="elmm_scaling", scale_range=[1]),
     r"^variability\.class_modes\[0\]: not enough values to unpack"),
])
def test_config_errors_name_the_key_path(edit, message):
    doc = _minimal_doc()
    edit(doc)
    with pytest.raises(FormatError, match=message):
        load_config(SceneConfig, doc)


def test_bench_config_round_trip_through_asdict():
    cfg = BenchConfig(scene=_full_config(),
                      roster=(RosterEntry("fcls", "fcls"),
                              RosterEntry("l1", "sparse-l1", options={"lambda_sparse": 1e-3})),
                      prune={"method": "count"}, n_monte_carlo=3)
    assert load_config(BenchConfig, json.loads(json.dumps(asdict(cfg)))) == cfg
    with pytest.raises(FormatError, match=r"^n_montecarlo: unknown key$"):
        load_config(BenchConfig, {**asdict(cfg), "n_montecarlo": 10})
    with pytest.raises(FormatError, match=r"^roster\[0\]: unknown algorithm 'fcsl'$"):
        load_config(BenchConfig, {**asdict(cfg), "roster": [{"name": "x", "algo": "fcsl"}]})


def test_documented_configs_load():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Scene config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = load_config(SceneConfig, json.loads(block))
    assert cfg.name == "demo" and len(cfg.variability.class_modes) == 3
    chain = (ROOT / "scripts" / "cli_chain.sh").read_text()
    heredoc = re.search(r"<<'JSON'\n(.*?)\nJSON\n", chain, re.S).group(1)
    cfg = load_config(SceneConfig, json.loads(heredoc))
    assert cfg.name == "chain" and cfg.abundance.correlation_length == 4.0
