"""Run configuration: defaults, file parsing, overrides and validation."""
from __future__ import annotations

import dataclasses

import pytest

from readskill.config import RunConfig, apply_set, load_config
from readskill.dsp import VadConfig
from readskill.errors import ConfigError
from readskill.pauses import SyllableConfig


def test_defaults():
    cfg = RunConfig()
    assert cfg.corpus_root == "."
    assert cfg.out_dir == "out"
    assert cfg.seed == 0
    assert cfg.plan == "one_stage"
    assert cfg.folds == 7
    assert cfg.tau == 0.5
    assert cfg.n_trees == 50
    assert cfg.min_pause_s == 0.2
    assert cfg.spdyn_ratio_scope == "interval"
    assert cfg.cluster_k_min == 2
    assert cfg.cluster_k_max == 6
    cfg.validate()


def test_dump_load_round_trip(tmp_path):
    cfg = RunConfig(seed=42, folds=5, tau=0.3, plan="two_stage_P",
                    corpus_root="/data", group_by="child_id")
    path = tmp_path / "run.cfg"
    path.write_text(cfg.dump())
    back = load_config(path)
    for f in dataclasses.fields(RunConfig):
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name


def test_load_config_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "seed = 9  # trailing comment\n"
        "tau=0.25\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.tau == 0.25


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 9\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_non_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 2\nplan = \xff\n")
    with pytest.raises(ConfigError, match="bad.cfg:2: not UTF-8 text"):
        load_config(path)


def test_coercion_types():
    cfg = RunConfig()
    apply_set(cfg, "seed=17")
    assert cfg.seed == 17 and isinstance(cfg.seed, int)
    apply_set(cfg, "tau=0.75")
    assert cfg.tau == 0.75 and isinstance(cfg.tau, float)
    apply_set(cfg, "plan=two_stage_Q")
    assert cfg.plan == "two_stage_Q"


def test_apply_set_errors():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        apply_set(cfg, "seed")
    with pytest.raises(ConfigError):
        apply_set(cfg, "bogus=1")
    with pytest.raises(ConfigError):
        apply_set(cfg, "seed=abc")
    with pytest.raises(ConfigError):
        apply_set(cfg, "tau=not_a_float")


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nfolds = 3\n")
    cfg = load_config(path, overrides=["seed=2"])
    assert cfg.seed == 2
    assert cfg.folds == 3


def test_validate_tau_range():
    with pytest.raises(ConfigError):
        load_config(overrides=["tau=1.5"])
    with pytest.raises(ConfigError):
        load_config(overrides=["tau=-0.1"])


def test_validate_folds_and_trees():
    with pytest.raises(ConfigError):
        load_config(overrides=["folds=1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["n_trees=0"])


def test_validate_ratio_scope():
    cfg = load_config(overrides=["spdyn_ratio_scope=audio"])
    assert cfg.spdyn_ratio_scope == "audio"
    with pytest.raises(ConfigError):
        load_config(overrides=["spdyn_ratio_scope=global"])


def test_validate_k_range():
    with pytest.raises(ConfigError):
        load_config(overrides=["cluster_k_min=1"])
    with pytest.raises(ConfigError):
        load_config(overrides=["cluster_k_min=5", "cluster_k_max=4"])


def test_validate_plan_names():
    cfg = load_config(overrides=["plan=one_stage,two_stage_P,two_stage_Q"])
    assert cfg.plan_ids() == ["one_stage", "two_stage_P", "two_stage_Q"]
    with pytest.raises(ConfigError):
        load_config(overrides=["plan=three_stage"])


def test_plan_ids_strips_blanks():
    cfg = RunConfig(plan=" one_stage , two_stage_P ,")
    assert cfg.plan_ids() == ["one_stage", "two_stage_P"]


def test_derived_configs_carry_fields():
    cfg = load_config(overrides=["vad_margin_db=9.0", "syll_min_gap_s=0.2",
                                 "min_pause_s=0.25", "spdyn_ratio_scope=audio"])
    assert cfg.vad.margin_db == 9.0
    assert cfg.syllable.min_gap_s == 0.2
    fc = cfg.feature_config()
    assert fc.min_pause_s == 0.25
    assert fc.ratio_scope == "audio"
    assert fc.vad.margin_db == 9.0


@pytest.mark.parametrize("prefix, section", [("vad_", VadConfig),
                                             ("syll_", SyllableConfig)])
def test_every_nested_field_has_a_flat_key(tmp_path, prefix, section):
    fields = dataclasses.fields(section)
    # distinct non-default values, typed like each field
    values = {f.name: (7 + k if f.type == "int" else 0.5 + k)
              for k, f in enumerate(fields)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{prefix}{name} = {v}\n" for name, v in values.items()))
    fc = load_config(path).feature_config()
    nested = fc.vad if section is VadConfig else fc.syllable
    for f in fields:
        got = getattr(nested, f.name)
        assert got == values[f.name] and type(got).__name__ == f.type, f.name
