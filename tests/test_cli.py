import json
import shutil
from pathlib import Path

import pytest

from moncatkit.cli import main
from moncatkit.fixtures import fixture_dir


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_trivial_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "trivial")
        assert code == 0
        assert "failures: 0" in out

    def test_corrupted_fixture_fails_with_named_instance(self, capsys, tmp_path):
        data = json.loads((fixture_dir() / "ns2.json").read_text())
        data["compose"]["s,s"] = "s"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "FAIL" in out and "s" in out

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no-such-model")
        assert code == 2
        assert "error" in err

    def test_malformed_spec_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2

    def test_builtin_models_validate(self, capsys):
        for name in ("thin", "thin3", "words3", "mat7"):
            code, out, _ = run_cli(capsys, "--max-leaves", "3", "validate", name)
            assert code == 0, (name, out)


class TestCoherenceCommand:
    def test_single_rotation(self, capsys):
        code, out, _ = run_cli(capsys, "coherence", "(x (y z))", "((x y) z)")
        assert code == 0
        assert "a⁻¹(x, y, z)" in out
        assert "verified against the unique thin arrow: True" in out

    def test_equal_terms_give_empty_trace(self, capsys):
        code, out, _ = run_cli(capsys, "coherence", "(x y)", "(x y)")
        assert code == 0
        assert "identity: empty trace" in out

    def test_five_leaf_normalization(self, capsys):
        source = "((x (y z)) (x y))"
        target = "((((x y) z) x) y)"
        code, out, _ = run_cli(capsys, "--format", "json", "coherence", source, target)
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["dom"] == source and payload["cod"] == target
        assert len(payload["factors"]) >= 2

    def test_leaf_count_mismatch_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "coherence", "(x y)", "x")
        assert code == 1
        assert "leaf counts differ" in err

    def test_word_mismatch_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "coherence", "(x y)", "(y x)")
        assert code == 1
        assert "different words" in err

    def test_explicit_model(self, capsys):
        code, out, _ = run_cli(capsys, "coherence", "(x (y z))", "((x y) z)", "--model", "thin3")
        assert code == 0
        code, _, err = run_cli(capsys, "coherence", "(a b)", "(a b)", "--model", "thin3")
        assert code == 2
        assert "generators" in err

    def test_bad_term_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coherence", "(x", "x")
        assert code == 2

    def test_unit_below_pair_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coherence", "(1 x)", "x")
        assert code == 2
        assert "error" in err


class TestStrictifyCommand:
    def test_unit_correspondence_and_trace(self, capsys):
        code, out, _ = run_cli(capsys, "strictify", "ns2", "--left", "A,I", "--right", "A,A")
        assert code == 0
        assert "() corresponds to I" in out
        assert "theta:" in out

    def test_json_dump_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "strictify", "thin", "--left", "•", "--right", "•,•"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_factors"]
        assert payload["par_concatenation"] == payload["theta_cod"]

    def test_empty_sequences(self, capsys):
        code, out, _ = run_cli(capsys, "strictify", "trivial", "--left", "", "--right", "")
        assert code == 0

    def test_parses_like_the_sequence_category(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "strictify", "thin3", "--left", "(x y),(z x)", "--right", "()"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["left"] == "((x y),(z x))" and payload["right"] == "()"
        assert payload["par_left"] == "((x y) (z x))"

    @pytest.mark.parametrize(
        "text, position", [("x,(y", 4), ("x, (y z", 7), (" (x", 3), ("(y", 2)]
    )
    @pytest.mark.parametrize("side", ["--left", "--right"])
    def test_syntax_error_position_counts_within_the_argument(self, capsys, side, text, position):
        code, out, err = run_cli(capsys, "strictify", "thin3", side, text)
        assert code == 2 and out == ""
        assert err.strip().endswith(f"(at position {position})")
        assert repr(text) in err


class TestBadObjectIsUsageError:
    @pytest.mark.parametrize(
        "argv",
        [
            ["strictify", "thin3", "--left", "w,x"],
            ["strictify", "mat7", "--left", "0,-1"],
            ["strictify", "thin", "--left", "(x x),x"],
            ["nonstrictify", "mat7", "(2 x)"],
            ["nonstrictify", "thin3", "(x w)"],
        ],
    )
    def test_exits_two_with_message(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestNonstrictifyCommand:
    def test_associator_endpoints_unequal(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "nonstrictify", "mat7", "2", "(2 3)", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["associator"]["endpoints_equal"] is False
        assert payload["associator"]["dom"] != payload["associator"]["cod"]

    def test_unit_dump(self, capsys):
        code, out, _ = run_cli(capsys, "nonstrictify", "ns2", "1")
        assert code == 0
        assert "corresponds to I" in out

    def test_parenthesization_follows_shape(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "nonstrictify", "mat7", "(2 (3 2))")
        assert code == 0
        payload = json.loads(out)
        assert payload["operands"][0]["parenthesization"] == "12"


class TestCheckCommand:
    @pytest.mark.parametrize("suite", ["axioms", "2functor", "adjunction-str", "adjunction-q"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(capsys, "--format", "json", "--max-leaves", "4", "check", "--suite", suite)
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []
        assert payload["seed"] == 0

    def test_seed_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "--seed", "9", "check", "--suite", "adjunction-str")
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_unknown_suite_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--suite", "nope")
        assert code == 2

    def test_axioms_single_model(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ns2", "--suite", "axioms")
        assert code == 0

    def test_json_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "--format", "json", "check", "--suite", "adjunction-q")
        _, second, _ = run_cli(capsys, "--format", "json", "check", "--suite", "adjunction-q")
        assert first == second

    def test_axioms_fail_on_corrupted_fixture_dir(self, capsys, tmp_path, monkeypatch):
        for name in ("trivial", "ns2"):
            shutil.copy(fixture_dir() / f"{name}.json", tmp_path / f"{name}.json")
        data = json.loads((tmp_path / "ns2.json").read_text())
        data["compose"]["s,s"] = "s"
        (tmp_path / "ns2.json").write_text(json.dumps(data))
        monkeypatch.setenv("MONCATKIT_FIXTURES", str(tmp_path))
        code, out, _ = run_cli(capsys, "--max-leaves", "2", "check", "--suite", "axioms")
        assert code == 1
        assert "ns2" in out


class TestTraceDeterminism:
    def test_coherence_json_byte_identical(self, capsys):
        args = ["--format", "json", "coherence", "((x y) (z x))", "(((x y) z) x)"]
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first[0] == 0
        assert first == second

    def test_dump_json_byte_identical(self, capsys):
        args = ["--format", "json", "strictify", "ns2", "--left", "A,A", "--right", "I,A"]
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


class TestGoldenOutput:
    """stdout pinned byte for byte against files recorded before the shared-core refactor."""

    CASES = {
        "check-2functor.json": ["--max-seq-len", "2", "check", "--suite", "2functor"],
        "check-adjunction-str.json": ["check", "--suite", "adjunction-str"],
        "check-adjunction-q.json": ["--max-leaves", "4", "check", "--suite", "adjunction-q"],
        "strictify-ns2.json": ["strictify", "ns2", "--left", "A,I", "--right", "A,A"],
        "strictify-thin3.json": ["strictify", "thin3", "--left", "x,y", "--right", "z,x,y"],
        "nonstrictify-mat7.json": ["nonstrictify", "mat7", "2", "(2 3)", "3"],
        "nonstrictify-ns2.json": ["nonstrictify", "ns2", "(A I)", "A", "(I (A A))"],
        "coherence-five-leaves.json": ["coherence", "((x (y z)) (w v))", "(x ((y z) (w v)))"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_matches_recorded_bytes(self, capsys, name):
        code, out, _ = run_cli(capsys, "--format", "json", *self.CASES[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestFailureReportGoldens:
    """A failing validation's report, pinned byte for byte in both formats."""

    @pytest.mark.parametrize("fmt", ["json", "txt"])
    def test_corrupted_ns2(self, capsys, tmp_path, fmt):
        data = json.loads((fixture_dir() / "ns2.json").read_text())
        data["compose"]["s,s"] = "s"
        bad = tmp_path / "ns2_corrupt.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "--format", "json" if fmt == "json" else "text", "validate", str(bad))
        assert code == 1
        assert out == (GOLDEN / f"validate-ns2-corrupt.{fmt}").read_text(encoding="utf-8")


class TestUniverseBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-leaves", "-1", "check", "--suite", "axioms", "thin"],
            ["--max-leaves", "-1", "check", "--suite", "adjunction-q"],
            ["--max-seq-len", "-1", "check", "--suite", "adjunction-str"],
            ["--max-leaves", "-3", "validate", "thin"],
        ],
    )
    def test_negative_bound_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be at least 0" in err

    def test_zero_bound_is_accepted(self, capsys):
        code, _, _ = run_cli(capsys, "--max-leaves", "0", "validate", "thin")
        assert code == 0


class TestParserReuse:
    def test_main_does_not_rebuild_the_parser(self, capsys, monkeypatch):
        from moncatkit import cli

        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run_cli(capsys, "validate", "trivial")[0] == 0

    def test_errors_and_answers_survive_reuse(self, capsys):
        for _ in range(2):
            assert run_cli(capsys, "--max-leaves", "x", "validate", "trivial")[0] == 2
            assert run_cli(capsys, "check", "--suite", "nope")[0] == 2
            code, out, _ = run_cli(capsys, "validate", "trivial")
            assert code == 0 and "failures: 0" in out


class TestEnvOverride:
    def test_fixture_dir_env_var(self, tmp_path, monkeypatch, capsys):
        shutil.copy(fixture_dir() / "trivial.json", tmp_path / "trivial.json")
        shutil.copy(fixture_dir() / "ns2.json", tmp_path / "ns2.json")
        monkeypatch.setenv("MONCATKIT_FIXTURES", str(tmp_path))
        code, _, _ = run_cli(capsys, "validate", "trivial")
        assert code == 0

    def test_explicit_flag_wins(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--fixtures", str(tmp_path), "validate", "ns2")
        assert code == 2  # directory has no ns2.json
