import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

from belief_opacity import cli, partition
from belief_opacity.cli import main
from belief_opacity.synthesis import EditUndefinedError
from conftest import BLOCKED_INITIAL_DOC, THREE_STATE_DOC


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.yaml"
    path.write_text(THREE_STATE_DOC)
    return str(path)


class TestValidate:
    def test_ok(self, model_file):
        assert main(["validate", "--model", model_file]) == 0

    def test_broken_column_sums(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(THREE_STATE_DOC.replace("- [0.4, 0.7, 0.7]", "- [0.3, 0.7, 0.7]"))
        assert main(["validate", "--model", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nope.yaml")]) == 2

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("states: [s1,")
        assert main(["validate", "--model", str(path)]) == 2

    def test_syntax_error_message(self, tmp_path, capsys):
        # the pure-Python parser's words and mark, also where libyaml parses
        path = tmp_path / "broken.yaml"
        path.write_text("states: [s1,")
        assert main(["validate", "--model", str(path)]) == 2
        assert capsys.readouterr().out == (
            "error: invalid model syntax: expected the node content, but found '<stream end>' "
            "(line 1, column 13)\n")

    def test_duplicate_state_names_exit_two(self, tmp_path, capsys):
        path = tmp_path / "dup.yaml"
        path.write_text(THREE_STATE_DOC.replace("states: [s1, s2, s3]", "states: [s1, s2, s2]"))
        assert main(["validate", "--model", str(path)]) == 2
        assert "duplicate state names" in capsys.readouterr().out

    def test_nan_entry_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        path.write_text(THREE_STATE_DOC.replace("pi0: [0.3, 0.1, 0.6]", "pi0: [0.3, .nan, 0.6]"))
        assert main(["validate", "--model", str(path)]) == 1
        assert "entries must lie in [0, 1] [pi0]" in capsys.readouterr().out

    def test_non_utf8_file_exits_two(self, tmp_path, capsys, caplog):
        path = tmp_path / "latin.yaml"
        path.write_bytes(THREE_STATE_DOC.encode() + b"# \xff\n")
        assert main(["validate", "--model", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().out
        assert main(["abstract", "--model", str(path), "--widths", "0.2",
                     "--out", str(tmp_path / "out")]) == 2
        offset = len(THREE_STATE_DOC.encode()) + 2
        assert [r.getMessage() for r in caplog.records] == [
            f"model file is not UTF-8 text (byte {offset})"]
        assert "Traceback" not in capsys.readouterr().err


class TestAbstract:
    def test_writes_all_artifacts(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["abstract", "--model", model_file, "--widths", "0.2",
                     "--out", str(out)]) == 0
        for name in ("cells.csv", "abstraction.dot", "pruned.dot", "edges.csv",
                     "partition.svg", "log.txt"):
            assert (out / name).exists(), name
        assert len((out / "cells.csv").read_text().splitlines()) == 26
        assert len((out / "log.txt").read_text().splitlines()) == 4

    def test_coarse_grid_exits_three(self, model_file, tmp_path):
        # a half-width grid refines the initial cell but then prunes it away
        out = tmp_path / "out"
        assert main(["abstract", "--model", model_file, "--widths", "0.5",
                     "--out", str(out)]) == 3
        assert (out / "log.txt").exists()
        assert "failed" in (out / "log.txt").read_text()

    def test_one_dimensional_outputs(self, tmp_path):
        doc = """\
states: [sA, sB]
actions: [a]
pi0: [0.4, 0.6]
trans:
  a:
    - [0.5, 0.3]
    - [0.5, 0.7]
secret: [sA]
lambda: 0.9
"""
        path = tmp_path / "two.yaml"
        path.write_text(doc)
        out = tmp_path / "out"
        assert main(["abstract", "--model", str(path), "--widths", "0.25",
                     "--out", str(out)]) == 0
        header = (out / "cells.csv").read_text().splitlines()[0]
        assert header == "id,lo0,hi0,status"
        assert not (out / "partition.svg").exists()

    @pytest.mark.parametrize("widths, message", [
        ("0.2,0.2,0.2", "expected 2 grid widths (or one), got 3"),
        ("nan", "widths must be positive finite numbers, got 'nan'"),
        ("inf", "widths must be positive finite numbers, got 'inf'"),
    ])
    def test_unusable_widths_exit_two(self, model_file, tmp_path, capsys, caplog,
                                      widths, message):
        assert main(["abstract", "--model", model_file, "--widths", widths,
                     "--out", str(tmp_path / "out")]) == 2
        assert [r.getMessage() for r in caplog.records] == [message]
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("widths", ["1e-300", "1e-5", "5e-324"])
    def test_grid_too_large_exits_two(self, model_file, tmp_path, capsys, caplog,
                                      monkeypatch, widths):
        def allocate(*args):
            raise AssertionError("grid edges built before the size check")

        monkeypatch.setattr(partition, "_axis_edges", allocate)
        assert main(["abstract", "--model", model_file, "--widths", widths,
                     "--out", str(tmp_path / "out")]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            f"grid widths [{float(widths)!r}, {float(widths)!r}] give more than 5000000 cells; "
            "use larger widths"]
        assert "Traceback" not in capsys.readouterr().err

    def test_invalid_model_exits_one(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text(THREE_STATE_DOC.replace("- [0.4, 0.7, 0.7]", "- [0.3, 0.7, 0.7]"))
        assert main(["abstract", "--model", str(path), "--widths", "0.2",
                     "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("old, new", [
        ("pi0: [0.3, 0.1, 0.6]", "pi0: [0.3, .nan, 0.6]"),
        ("- [0.4, 0.7, 0.7]", "- [0.4, .nan, 0.7]"),
    ])
    def test_nan_model_exits_one(self, tmp_path, capsys, old, new):
        path = tmp_path / "nan.yaml"
        path.write_text(THREE_STATE_DOC.replace(old, new))
        assert main(["abstract", "--model", str(path), "--widths", "0.2",
                     "--out", str(tmp_path / "out")]) == 1
        assert "entries must lie in [0, 1]" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()


class TestSynthesize:
    def test_direct_writes_allowed_and_policy(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["synthesize", "--model", model_file, "--widths", "0.2",
                     "--mode", "direct", "--target", "s3", "--out", str(out)]) == 0
        allowed = (out / "allowed.csv").read_text().splitlines()
        assert allowed == ["state,actions,vacuous", "s1,a1,false",
                           "s2,a1,false", "s3,a1,false"]
        policy = (out / "policy.csv").read_text().splitlines()
        assert policy[0] == "state,action,value"
        assert all(line.split(",")[1] == "a1" for line in policy[1:])

    def test_edit_writes_dot(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["synthesize", "--model", model_file, "--widths", "0.2",
                     "--mode", "edit", "--out", str(out)]) == 0
        dot = (out / "edit.dot").read_text()
        assert 'label="a2/a1"' in dot

    def test_unknown_target_exits_two(self, tmp_path, capsys, caplog):
        model = Path(__file__).parents[1] / "demos" / "models" / "three_state.yaml"
        assert main(["synthesize", "--model", str(model), "--widths", "0.2",
                     "--mode", "direct", "--target", "nosuch",
                     "--out", str(tmp_path / "out")]) == 2
        assert "unknown target states ['nosuch']" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_blocked_initial_state_exits_four(self, tmp_path):
        path = tmp_path / "blocked.yaml"
        path.write_text(BLOCKED_INITIAL_DOC)
        assert main(["synthesize", "--model", str(path), "--widths", "0.2",
                     "--mode", "direct", "--out", str(tmp_path / "out")]) == 4


class TestSimulate:
    def test_plain_run(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--model", model_file, "--steps", "100",
                     "--actions", "a1", "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 102

    def test_threshold_override_violates_at_step_zero(self, model_file, tmp_path):
        assert main(["simulate", "--model", model_file, "--steps", "5",
                     "--actions", "a1", "--lambda", "0.39",
                     "--out", str(tmp_path / "out")]) == 5

    def test_zero_steps(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--model", model_file, "--steps", "0",
                     "--out", str(out)]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 2

    def test_edited_stream(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--model", model_file, "--steps", "50",
                     "--actions", "random", "--edited", "--widths", "0.2",
                     "--strategy", "match-if-safe", "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] for row in rows[1:])  # output column filled

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_uniform_random_rewrites_about_half_the_random_actions(self, model_file, tmp_path,
                                                                   seed):
        # both actions are enabled almost everywhere at this width, so a
        # uniform pick independent of the real action differs from it about
        # half the time; drawn from one generator state, the two would agree
        out = tmp_path / "out"
        assert main(["simulate", "--model", model_file, "--steps", "2000", "--edited",
                     "--widths", "0.015", "--actions", "random", "--strategy", "uniform-random",
                     "--seed", seed, "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[2:]]
        assert len(rows) == 2000
        rewritten = sum(real != output for _, real, output, *_ in rows)
        assert 0.35 * 2000 < rewritten < 0.65 * 2000

    def test_stuck_edit_engine_exits_six(self, model_file, tmp_path, monkeypatch, caplog):
        def stuck(*args, **kwargs):
            raise EditUndefinedError("observer belief moved to cell 7")

        monkeypatch.setattr(cli, "simulate_edited", stuck)
        assert main(["simulate", "--model", model_file, "--steps", "5", "--edited",
                     "--widths", "0.2", "--out", str(tmp_path / "out")]) == 6
        assert "observer belief moved to cell 7" in caplog.text

    def test_edited_requires_widths(self, model_file, tmp_path):
        assert main(["simulate", "--model", model_file, "--steps", "5",
                     "--edited", "--out", str(tmp_path / "out")]) == 2

    def test_unknown_action_name(self, model_file, tmp_path):
        assert main(["simulate", "--model", model_file, "--steps", "5",
                     "--actions", "zz", "--out", str(tmp_path / "out")]) == 2


ONE_STATE_DOC = """\
states: [s1]
actions: [a]
pi0: [1.0]
trans:
  a:
    - [1.0]
secret: []
lambda: 0.5
"""


TIGHT_TWO_STATE_DOC = """\
states: [sA, sB]
actions: [a]
pi0: [0.75, 0.25]
trans:
  a:
    - [0.6, 0.4]
    - [0.4, 0.6]
secret: [sA]
lambda: 0.75
"""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["abstract"],
        ["synthesize", "--mode", "edit"],
        ["simulate", "--edited"],
    ])
    def test_one_state_model_exits_two(self, tmp_path, capsys, caplog, argv):
        path = tmp_path / "one.yaml"
        path.write_text(ONE_STATE_DOC)
        assert main([*argv, "--model", str(path), "--widths", "0.2",
                     "--out", str(tmp_path / "out")]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "belief abstraction needs at least two states"]
        assert "Traceback" not in capsys.readouterr().err

    def test_removed_clip_flag_is_rejected(self, model_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["abstract", "--model", model_file, "--widths", "0.2", "--clip",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["abstract"], ["synthesize", "--mode", "edit"]])
    def test_seed_belongs_to_simulate_only(self, model_file, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--model", model_file, "--widths", "0.2", "--seed", "0",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["abstract", "--widths", "0.2"],
        ["synthesize", "--widths", "0.2", "--mode", "direct"],
        ["simulate"],
    ])
    def test_state_name_with_a_comma_exits_two(self, tmp_path, capsys, caplog, argv):
        path = tmp_path / "comma.yaml"
        path.write_text(THREE_STATE_DOC.replace("states: [s1, s2, s3]", 'states: [s1, s2, "x,y"]'))
        out = tmp_path / "out"
        args = [*argv, "--model", str(path)] + (["--out", str(out)] if argv != ["validate"] else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines() + [r.getMessage() for r in caplog.records]
        assert lines == [("error: " if argv == ["validate"] else "") + "invalid state name "
                         "'x,y': names must be non-empty and contain no ',', ';', '\"', '\\' "
                         "or control character"]
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_refinement_budget_exits_three(self, tmp_path):
        # x0 = 0.75 sits exactly on the threshold and on no bisection point
        # of the cell [0, 0.9], so every cell holding it stays bad
        path = tmp_path / "tight.yaml"
        path.write_text(TIGHT_TWO_STATE_DOC)
        proc = subprocess.run(
            [sys.executable, "-m", "belief_opacity", "abstract", "--model", str(path),
             "--widths", "0.9", "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "ERROR initial cell still bad after 32 bisections; "
            "the opacity threshold may be too tight around the initial belief"]
        assert not (tmp_path / "out").exists()

    def test_negative_steps_exit_two(self, model_file, tmp_path, caplog):
        assert main(["simulate", "--model", model_file, "--steps", "-3",
                     "--out", str(tmp_path / "out")]) == 2
        assert "--steps must be non-negative, got -3" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [[], ["--edited", "--widths", "0.2"]],
                             ids=["random", "edited"])
    def test_negative_seed_exits_two(self, model_file, tmp_path, capsys, caplog, extra):
        assert main(["simulate", "--model", model_file, "--actions", "random", *extra,
                     "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "--seed must be non-negative, got -1"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_refined_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the refined reference model: its abstraction has sparse ids and
        # ``bad``-containing transitions, whose frozensets iterate in
        # hash-seed order
        path = tmp_path / "refined.yaml"
        path.write_text(THREE_STATE_DOC.replace("pi0: [0.3, 0.1, 0.6]", "pi0: [0.5, 0.29, 0.21]"))
        common = ["--model", str(path), "--widths", "0.02"]
        runs = {
            "abstract": ["abstract", *common],
            "edit": ["synthesize", *common, "--mode", "edit"],
            "simulate": ["simulate", *common, "--edited", "--steps", "300",
                         "--strategy", "uniform-random", "--seed", "5"],
        }
        src = str(Path(cli.__file__).parents[1])
        outputs = []
        for seed in ("0", "1"):
            files = {}
            for name, argv in runs.items():
                out = tmp_path / seed / name
                subprocess.run([sys.executable, "-m", "belief_opacity", *argv, "--out", str(out)],
                               env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                               check=True, capture_output=True)
                files.update({f"{name}/{p.name}": p.read_bytes() for p in out.iterdir()})
            outputs.append(files)
        assert sorted(outputs[0]) == [
            "abstract/abstraction.dot", "abstract/cells.csv", "abstract/edges.csv",
            "abstract/log.txt", "abstract/partition.svg", "abstract/pruned.dot",
            "edit/edit.dot", "simulate/trace.csv"]
        assert outputs[0] == outputs[1]

    def test_abstract_twice_is_byte_identical(self, model_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["abstract", "--model", model_file, "--widths", "0.2",
                         "--out", str(out)]) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], files, shallow=False)
        assert sorted(match) == files and not mismatch and not errors
