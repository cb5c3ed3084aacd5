"""Spec files of both languages: loading, the bundled registry, the CLIs.

Scenarios and reports share one file layer (:class:`repro.fields.SpecFiles`),
so every case here runs once per language through that language's public
functions and CLI.
"""

import json
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.cli import main
from repro.reports import (
    ReportError,
    bundled_report_names,
    load_bundled_report,
    load_report_file,
    resolve_report,
)
from repro.reports.registry import REPORT_FILES
from repro.scenarios import (
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario_file,
    resolve_scenario,
)
from repro.scenarios.registry import SCENARIO_FILES


@dataclass(frozen=True)
class Language:
    kind: str
    error: type
    files: object
    load_file: Callable
    load_bundled: Callable
    names: Callable
    resolve: Callable
    document: dict  # a minimal valid document ...
    toml: str  # ... and the same document as TOML
    bundled: str  # one bundled name


LANGUAGES = [
    Language("scenario", ScenarioError, SCENARIO_FILES, load_scenario_file,
             load_bundled_scenario, bundled_scenario_names, resolve_scenario,
             {"n_ranks": 4, "n_steps": 2}, "n_ranks = 4\nn_steps = 2\n",
             "fig4_single_delay"),
    Language("report", ReportError, REPORT_FILES, load_report_file,
             load_bundled_report, bundled_report_names, resolve_report,
             {"scenario": "fig4_single_delay",
              "metrics": [{"name": "runtime"}]},
             'scenario = "fig4_single_delay"\n[[metrics]]\nname = "runtime"\n',
             "fig7_speed"),
]


@pytest.fixture(params=LANGUAGES, ids=lambda lang: lang.kind)
def lang(request):
    return request.param


def write_doc(lang: Language, path, description: str = ""):
    """Write ``lang``'s minimal document, in the format of ``path``."""
    if path.suffix == ".json":
        path.write_text(json.dumps({**lang.document,
                                    "description": description}))
    else:
        path.write_text(f"description = {json.dumps(description)}\n"
                        + lang.toml)
    return path


def write_non_utf8(lang: Language, path):
    """A valid TOML document whose comment holds the byte 0xff."""
    write_doc(lang, path)
    path.write_bytes(b"# caf\xff\n" + path.read_bytes())
    return path


class TestLoadFile:
    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_stem_names_the_document(self, lang, tmp_path, suffix):
        path = write_doc(lang, tmp_path / f"my_doc{suffix}")
        assert lang.load_file(path).name == "my_doc"

    def test_unsupported_suffix(self, lang, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_text("n_ranks: 4\n")
        with pytest.raises(lang.error) as err:
            lang.load_file(path)
        assert str(err.value) == (
            f"unsupported {lang.kind} file type '.yaml' ({path}); "
            "use .toml or .json")

    def test_missing_path_cannot_be_read(self, lang, tmp_path):
        path = tmp_path / "nope.toml"
        with pytest.raises(lang.error, match=f"^cannot read {lang.kind} "
                           "file .*nope.toml: .*No such file"):
            lang.load_file(path)

    @pytest.mark.parametrize("suffix, text, markup", [
        (".toml", "x = = 1\n", "TOML"), (".json", "{nope", "JSON")])
    def test_invalid_markup_names_the_file(self, lang, tmp_path, suffix,
                                           text, markup):
        path = tmp_path / f"broken{suffix}"
        path.write_text(text)
        with pytest.raises(lang.error) as err:
            lang.load_file(path)
        message = str(err.value)
        assert message.startswith(f"{lang.kind} 'broken': invalid {markup}: ")
        assert message.endswith(f" (file: {path})")

    def test_non_utf8_bytes_are_rejected(self, lang, tmp_path):
        path = write_non_utf8(lang, tmp_path / "bad.toml")
        with pytest.raises(lang.error) as err:
            lang.load_file(path)
        assert not isinstance(err.value, UnicodeDecodeError)
        assert str(err.value) == (
            f"cannot read {lang.kind} file {path}: 'utf-8' codec can't "
            "decode byte 0xff in position 5: invalid start byte")


class TestBundled:
    def test_toml_beats_json_with_the_same_stem(self, lang, tmp_path,
                                                monkeypatch):
        write_doc(lang, tmp_path / "a.toml", description="from toml")
        write_doc(lang, tmp_path / "a.json", description="from json")
        write_doc(lang, tmp_path / "b.json", description="only json")
        monkeypatch.setattr(lang.files, "bundled_dir", tmp_path)
        assert lang.load_bundled("a").description == "from toml"
        assert lang.load_bundled("b").description == "only json"

    def test_unknown_name_lists_the_available_ones(self, lang):
        with pytest.raises(lang.error) as err:
            lang.load_bundled("nope")
        assert str(err.value) == (
            f"unknown bundled {lang.kind} 'nope'; available: {lang.names()}")
        assert lang.bundled in lang.names()

    def test_bundled_name_and_file_path_both_resolve(self, lang, tmp_path):
        assert lang.resolve(lang.bundled).name == lang.bundled
        path = write_doc(lang, tmp_path / "mine.toml")
        assert lang.resolve(str(path)).name == "mine"


class TestCliOnNonUtf8File:
    @pytest.fixture
    def bad(self, lang, tmp_path):
        return write_non_utf8(lang, tmp_path / "bad.toml")

    def test_validate_fails_the_file_and_checks_the_rest(self, lang, bad,
                                                         capsys):
        assert main([lang.kind, "validate", lang.bundled, str(bad),
                     lang.bundled]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"ok    {lang.bundled} ({lang.bundled})"
        assert out[1].startswith(f"FAIL  {bad}: cannot read {lang.kind} file")
        assert out[2] == out[0]
        assert out[3] == f"[1/3 {lang.kind}(s) failed validation]"

    def test_run_exits_2_with_the_language_error(self, lang, bad, capsys):
        assert main([lang.kind, "run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{lang.kind} error: cannot read {lang.kind} "
                              f"file {bad}: 'utf-8' codec can't decode")


def test_report_naming_a_non_utf8_scenario_fails_validation(tmp_path, capsys):
    scenario = write_non_utf8(LANGUAGES[0], tmp_path / "bad_scenario.toml")
    report = tmp_path / "r.toml"
    report.write_text(f'scenario = "{scenario}"\n'
                      '[[metrics]]\nname = "runtime"\n')
    assert main(["report", "validate", str(report)]) == 1
    out = capsys.readouterr().out
    assert (f"FAIL  {report}: report 'r': field 'scenario': scenario "
            f"'{scenario}' does not resolve: cannot read scenario file "
            f"{scenario}: 'utf-8' codec") in out
