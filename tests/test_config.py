"""Run configuration: defaults, file parsing, overrides and validation."""
from __future__ import annotations

import dataclasses

import pytest

from readskill.cli import main
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
    assert cfg.feature.min_pause_s == 0.2
    assert cfg.group_by == ""
    assert cfg.kmeans_restarts == 10
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
    with pytest.raises(ConfigError, match="run.cfg:1: expected key = value, got 'seed 9'"):
        load_config(path)


@pytest.mark.parametrize("line, message", [
    ("seed = abc", "seed expects an int, got 'abc'"),
    ("tau = high", "tau expects a float, got 'high'"),
    ("min_pause_s = nan", "min_pause_s must be a finite number, got 'nan'"),
])
def test_load_config_bad_value_names_its_line(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"# run settings\n{line}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}:2: {message}"


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
    with pytest.raises(ConfigError, match="^expected key = value, got 'seed'$"):
        apply_set(cfg, "seed")
    with pytest.raises(ConfigError):
        apply_set(cfg, "bogus=1")
    with pytest.raises(ConfigError):
        apply_set(cfg, "seed=abc")
    with pytest.raises(ConfigError):
        apply_set(cfg, "tau=not_a_float")


@pytest.mark.parametrize("setting", [
    "min_pause_s=nan", "syll_smooth_s=nan", "min_pause_s=inf", "syll_min_gap_s=inf",
    "syll_height_frac=nan", "vad_margin_db=nan", "vad_abs_threshold_db=-inf",
    "tau=NaN", "syll_band_high_hz=Infinity"])
def test_non_finite_float_setting_exits_2(tmp_path, capsys, setting):
    key, raw = setting.split("=")
    out = tmp_path / "out"
    rc = main(["--set", f"corpus_root={tmp_path}", "--set", f"out_dir={out}",
               "--set", setting, "--jobs", "1", "featurize"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} must be a finite number, got {raw!r}\n"
    assert not out.exists()
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        load_config(path)


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


def test_validate_kmeans_restarts():
    assert load_config(overrides=["kmeans_restarts=1"]).kmeans_restarts == 1
    for bad in ("0", "-2"):
        with pytest.raises(ConfigError, match="kmeans_restarts must be positive"):
            load_config(overrides=[f"kmeans_restarts={bad}"])


@pytest.mark.parametrize("name", ["", "child_id", "story_id", "timestamp"])
def test_validate_group_by_accepts_metadata_fields(name):
    assert load_config(overrides=[f"group_by={name}"]).group_by == name


@pytest.mark.parametrize("name", ["child", "id", "Child_ID", "class"])
def test_validate_group_by_rejects_other_names(name):
    with pytest.raises(ConfigError, match=f"group_by must be empty or one of .*{name!r}"):
        load_config(overrides=[f"group_by={name}"])


def test_removed_ratio_scope_key_is_unknown(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key 'spdyn_ratio_scope'"):
        load_config(overrides=["spdyn_ratio_scope=audio"])
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nspdyn_ratio_scope = interval\n")
    with pytest.raises(ConfigError, match="run.cfg:2: unknown config key 'spdyn_ratio_scope'"):
        load_config(path)


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
    for empty in ("", ",", " , "):
        with pytest.raises(ConfigError, match="plan names no plan id"):
            load_config(overrides=[f"plan={empty}"])


def test_plan_ids_strips_blanks():
    cfg = RunConfig(plan=" one_stage , two_stage_P ,")
    assert cfg.plan_ids() == ["one_stage", "two_stage_P"]


def test_derived_configs_carry_fields():
    cfg = load_config(overrides=["vad_margin_db=9.0", "syll_min_gap_s=0.2",
                                 "min_pause_s=0.25", "syll_band_low_hz=250"])
    fc = cfg.feature
    assert fc.vad.margin_db == 9.0
    assert fc.syllable.min_gap_s == 0.2
    assert fc.min_pause_s == 0.25
    assert fc.syllable.band_low_hz == 250.0


@pytest.mark.parametrize("prefix, section", [("vad_", VadConfig),
                                             ("syll_", SyllableConfig)])
def test_every_nested_field_has_a_flat_key(tmp_path, prefix, section):
    fields = dataclasses.fields(section)
    # distinct non-default values, typed like each field; odd ints, since
    # an even vad_median_frames is a config error
    values = {f.name: (7 + 2 * k if f.type == "int" else 0.5 + k)
              for k, f in enumerate(fields)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{prefix}{name} = {v}\n" for name, v in values.items()))
    fc = load_config(path).feature
    nested = fc.vad if section is VadConfig else fc.syllable
    for f in fields:
        got = getattr(nested, f.name)
        assert got == values[f.name] and type(got).__name__ == f.type, f.name


# The exact `config --dump` text: its keys, their order and the value format
# are the contract that config files and --set are written against.
DEFAULT_DUMP = """\
corpus_root = .
out_dir = out
seed = 0
plan = one_stage
folds = 7
tau = 0.5
n_trees = 50
group_by = 
min_pause_s = 0.2
vad_floor_percentile = 10.0
vad_margin_db = 6.0
vad_abs_threshold_db = -45.0
vad_harmonicity_threshold = 0.45
vad_harmonicity_margin_db = 3.0
vad_median_frames = 5
vad_hangover_frames = 2
vad_min_run_frames = 3
syll_band_low_hz = 300.0
syll_band_high_hz = 2500.0
syll_smooth_s = 0.15
syll_height_frac = 0.1
syll_prominence_frac = 0.05
syll_min_gap_s = 0.1
kmeans_restarts = 10
cluster_k_min = 2
cluster_k_max = 6
"""


@pytest.mark.parametrize("overrides, changed", [
    ([], {}),
    (["vad_margin_db=9", "min_pause_s=0.25", "group_by=story_id",
      "syll_min_gap_s=0.3", "tau=0.3"],
     {"vad_margin_db": "9.0", "min_pause_s": "0.25", "group_by": "story_id",
      "syll_min_gap_s": "0.3", "tau": "0.3"}),
])
def test_config_dump_text_is_pinned(capsys, overrides, changed):
    argv = [arg for o in overrides for arg in ("--set", o)]
    assert main([*argv, "config", "--dump"]) == 0
    want = "".join(
        f"{key} = {changed[key]}\n" if key in changed else line + "\n"
        for line in DEFAULT_DUMP.splitlines() for key in [line.split(" = ")[0]])
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("key", ["min_pause_s", "vad_median_frames", "vad_hangover_frames",
                                 "vad_min_run_frames", "syll_smooth_s", "syll_min_gap_s",
                                 "syll_height_frac", "syll_prominence_frac"])
def test_negative_feature_setting_exits_2(capsys, key):
    # each was clamped or read as 0 without a word
    with pytest.raises(ConfigError, match=f"{key} must be non-negative, got -1"):
        load_config(overrides=[f"{key}=-1"])
    assert main(["--set", f"{key}=-1", "config"]) == 2
    assert f"{key} must be non-negative" in capsys.readouterr().err
    assert load_config(overrides=[f"{key}=0"])
