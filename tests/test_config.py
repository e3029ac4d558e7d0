"""Table-level tests for the flat config format: every key, every parser error."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from mammoscope import cli, config
from mammoscope.config import PipelineConfig, load_config, parse_config
from mammoscope.errors import MammoscopeError

DEFAULT = PipelineConfig()
README = Path(__file__).resolve().parents[1] / "README.md"

# key, a non-default value, the PipelineConfig that line alone must give
EVERY_KEY = [
    ("preprocess.threshold", "0.25",
     replace(DEFAULT, preprocess=replace(DEFAULT.preprocess, threshold=0.25))),
    ("wavelet.filter", "haar",
     replace(DEFAULT, features=replace(DEFAULT.features, filter="haar"))),
    ("wavelet.levels", "2", replace(DEFAULT, features=replace(DEFAULT.features, levels=2))),
    ("features.mode", "extended",
     replace(DEFAULT, features=replace(DEFAULT.features, mode="extended"))),
    ("select.k", "6", replace(DEFAULT, select_k=6)),
    ("classifier.threshold", "0.375", replace(DEFAULT, classifier_threshold=0.375)),
    ("cv.k", "7", replace(DEFAULT, cv_folds=7)),
    ("cv.seed", "-3", replace(DEFAULT, cv_seed=-3)),
    ("phantom.size", "96", replace(DEFAULT, phantom=replace(DEFAULT.phantom, size=96))),
    ("phantom.count_per_class", "3",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, count_per_class=3))),
    ("phantom.seed", "123", replace(DEFAULT, phantom=replace(DEFAULT.phantom, seed=123))),
    ("phantom.noise_sigma", "0.5",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, noise_sigma=0.5))),
    ("phantom.mass_amplitude", "0.125",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, mass_amplitude=0.125))),
    ("phantom.mass_radius", "20.5",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, mass_radius=20.5))),
    ("phantom.microcalc_count", "5",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, microcalc_count=5))),
    ("phantom.microcalc_amplitude", "0.75",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, microcalc_amplitude=0.75))),
    ("phantom.artifact_label", "on",
     replace(DEFAULT, phantom=replace(DEFAULT.phantom, artifact_label=True))),
]

FLOAT_KEYS = [
    "preprocess.threshold",
    "classifier.threshold",
    "phantom.noise_sigma",
    "phantom.mass_amplitude",
    "phantom.mass_radius",
    "phantom.microcalc_amplitude",
]

INT_KEYS = [
    "wavelet.levels",
    "select.k",
    "cv.k",
    "cv.seed",
    "phantom.size",
    "phantom.count_per_class",
    "phantom.seed",
    "phantom.microcalc_count",
]


def readme_ini_block() -> str:
    return re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


class TestEveryKey:
    @pytest.mark.parametrize("key, raw, expected", EVERY_KEY, ids=[k for k, _, _ in EVERY_KEY])
    def test_key_sets_its_field(self, key, raw, expected):
        assert expected != DEFAULT
        assert parse_config(f"{key} = {raw}") == expected

    def test_all_keys_together_compose(self):
        text = "\n".join(f"{key} = {raw}" for key, raw, _ in EVERY_KEY)
        cfg = parse_config(text)
        assert cfg.preprocess == replace(DEFAULT.preprocess, threshold=0.25)
        assert cfg.features == replace(DEFAULT.features, filter="haar", levels=2,
                                       mode="extended")
        assert (cfg.select_k, cfg.classifier_threshold, cfg.cv_folds, cfg.cv_seed) == (
            6, 0.375, 7, -3)
        assert cfg.phantom == replace(
            DEFAULT.phantom, size=96, count_per_class=3, seed=123, noise_sigma=0.5,
            mass_amplitude=0.125, mass_radius=20.5, microcalc_count=5,
            microcalc_amplitude=0.75, artifact_label=True)

    def test_every_key_is_covered(self):
        assert {key for key, _, _ in EVERY_KEY} == set(config._KEYS)

    def test_empty_text_is_defaults(self):
        assert parse_config("") == DEFAULT
        assert parse_config("\n   \n# only a comment\n") == DEFAULT


class TestReadmeSync:
    def test_readme_block_parses_to_defaults_plus_select_k(self):
        assert parse_config(readme_ini_block()) == replace(DEFAULT, select_k=4)

    def test_readme_block_without_select_k_is_the_defaults(self):
        lines = readme_ini_block().splitlines()
        kept = [line for line in lines if line.split("=")[0].strip() != "select.k"]
        assert len(kept) == len(lines) - 1
        assert parse_config("\n".join(kept)) == PipelineConfig()

    def test_readme_lists_every_key_in_order(self):
        keys = [line.split("=")[0].strip() for line in readme_ini_block().splitlines()]
        assert keys == list(config._KEYS)


class TestLineSyntax:
    def test_comments_and_whitespace(self):
        text = "# header\n  cv.k=3   # trailing comment\n\t\ncv.seed =  9#x\n"
        assert parse_config(text) == replace(DEFAULT, cv_folds=3, cv_seed=9)

    def test_value_after_first_equals_sign(self):
        with pytest.raises(MammoscopeError, match=re.escape("<config>:1: cv.k: invalid literal")):
            parse_config("cv.k = 3 = 4")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cv.k 3", "<config>:1: expected key = value, got 'cv.k 3'"),
            ("\ncv.k 3  # note", "<config>:2: expected key = value, got 'cv.k 3  # note'"),
            ("wavelet.depth = 3", "<config>:1: unknown key 'wavelet.depth'"),
            ("Cv.K = 3", "<config>:1: unknown key 'Cv.K'"),
            ("preprocess.orient = off", "<config>:1: unknown key 'preprocess.orient'"),
            ("preprocess.artifact_removal = on",
             "<config>:1: unknown key 'preprocess.artifact_removal'"),
            ("= 3", "<config>:1: unknown key ''"),
            ("cv.k = 2\n\ncv.k = 3", "<config>:3: duplicate key 'cv.k'"),
            ("cv.k = 2\ncv.k = 2", "<config>:2: duplicate key 'cv.k'"),
        ],
    )
    def test_line_errors(self, text, message):
        with pytest.raises(MammoscopeError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_source_names_the_file(self):
        with pytest.raises(MammoscopeError) as info:
            parse_config("a = 1", source="run.cfg")
        assert str(info.value) == "run.cfg:1: unknown key 'a'"


class TestParserErrors:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("phantom.artifact_label = yes",
             "<config>:1: phantom.artifact_label: expected on/off, got 'yes'"),
            ("phantom.artifact_label = ON",
             "<config>:1: phantom.artifact_label: expected on/off, got 'ON'"),
            ("wavelet.filter = sym8",
             "<config>:1: wavelet.filter: expected one of ('haar', 'daub4'), got 'sym8'"),
            ("features.mode = full",
             "<config>:1: features.mode: expected one of ('default8', 'extended'), got 'full'"),
            ("wavelet.levels = 2.5",
             "<config>:1: wavelet.levels: invalid literal for int() with base 10: '2.5'"),
            ("cv.k =", "<config>:1: cv.k: invalid literal for int() with base 10: ''"),
            ("preprocess.threshold = high",
             "<config>:1: preprocess.threshold: could not convert string to float: 'high'"),
        ],
    )
    def test_parser_message(self, line, message):
        with pytest.raises(MammoscopeError) as info:
            parse_config(line)
        assert str(info.value) == message

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_float_is_rejected(self, key, raw):
        with pytest.raises(MammoscopeError) as info:
            parse_config(f"# header\n{key} = {raw}")
        assert str(info.value) == f"<config>:2: {key}: expected a finite number, got {raw!r}"


    @pytest.mark.parametrize("key", INT_KEYS + FLOAT_KEYS)
    @pytest.mark.parametrize("raw", ["1_0", "2_0_0", "\u0663", "1\u0660", "\uff17"],
                             ids=["separator", "separators", "arabic-indic", "mixed", "fullwidth"])
    def test_python_only_spelling_is_rejected(self, key, raw):
        """Only the ASCII spellings the feature CSV reads: ``int()`` and ``float()`` take more."""
        with pytest.raises(MammoscopeError) as info:
            parse_config(f"# header\n{key} = {raw}")
        assert str(info.value) == f"<config>:2: {key}: expected a plain ASCII number, got {raw!r}"

    @pytest.mark.parametrize("line, expected", [
        ("cv.k = +3", replace(DEFAULT, cv_folds=3)),
        ("cv.k = 007", replace(DEFAULT, cv_folds=7)),
        ("cv.seed = -4", replace(DEFAULT, cv_seed=-4)),
        ("classifier.threshold = .25", replace(DEFAULT, classifier_threshold=0.25)),
        ("classifier.threshold = 2.5E-1", replace(DEFAULT, classifier_threshold=0.25)),
        ("classifier.threshold = +0.75", replace(DEFAULT, classifier_threshold=0.75)),
    ])
    def test_ascii_spellings_still_read(self, line, expected):
        assert parse_config(line) == expected


class TestValidation:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("preprocess.threshold = 1.5", "<config>: preprocess.threshold must lie in [0, 1]"),
            ("wavelet.levels = 0", "<config>: wavelet.levels must be >= 1"),
            ("classifier.threshold = 1", "<config>: classifier.threshold must lie in (0, 1)"),
            ("cv.k = 1", "<config>: cv.k must be >= 2"),
            ("select.k = 0", "<config>: select.k must be >= 1"),
            ("phantom.size = 8", "<config>: phantom: size must be >= 16"),
            ("phantom.mass_radius = 40",
             "<config>: phantom: mass_radius must lie in (0, size/4)"),
            (f"phantom.size = {10**400}\nphantom.mass_radius = 1e308",
             "<config>: phantom: mass_radius must lie in (0, size/4)"),
        ],
    )
    def test_rule_message(self, text, message):
        with pytest.raises(MammoscopeError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_size_past_the_float_range_is_compared_exactly(self):
        assert parse_config(f"phantom.size = {10**400}").phantom.size == 10**400


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MammoscopeError, match="cannot read config"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"cv.k = 3 # \xff\n")
        with pytest.raises(MammoscopeError, match="cannot read config"):
            load_config(str(path))

    def test_source_is_the_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cv.k = 3\ncv.k = 4\n", encoding="utf-8")
        with pytest.raises(MammoscopeError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path}:2: duplicate key 'cv.k'"


class TestCommandExit:
    @pytest.mark.parametrize("line", [
        "phantom.noise_sigma = nan",
        "phantom.mass_amplitude = nan",
        "phantom.noise_sigma = inf",
        "phantom.microcalc_amplitude = inf",
    ])
    def test_non_finite_phantom_value_is_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"phantom.size = 32\nphantom.count_per_class = 1\n"
                       f"phantom.mass_radius = 4\n{line}\n", encoding="utf-8")
        out = tmp_path / "images"
        assert cli.main(["phantom", "--config", str(cfg), "--out", str(out)]) == 2
        assert "expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_digit_separator_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("cv.seed = 1\ncv.k = 1_0\n", encoding="utf-8")
        features = tmp_path / "features.csv"
        features.write_text("id,label,a\nx,normal,1\ny,suspicious,2\n", encoding="utf-8")
        assert cli.main(["evaluate", "--config", str(cfg), "--features", str(features)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:2: cv.k: expected a plain ASCII number, got '1_0'\n"

    def test_undecodable_config_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_bytes(b"cv.k = 3\n# caf\xff\n")
        out = tmp_path / "images"
        assert cli.main(["phantom", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err
        assert not out.exists()
