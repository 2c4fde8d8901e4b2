"""End-to-end CLI behavior: files, JSON documents, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sloccinv import complement, load_state, random_state, save_state
from sloccinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_make_ghz(tmp_path, capsys):
    out_file = tmp_path / "g4.json"
    code, out, _ = run(capsys, "make", "ghz", "--n", "4", "-o", str(out_file))
    assert code == 0
    assert "n=4" in out and "norm=1" in out
    s = load_state(out_file)
    assert s.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert s.amplitudes[15] == pytest.approx(0.7071067811865476)


def test_make_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "make", "random", "--n", "5", "--seed", "42", "-o", str(a))[0] == 0
    assert run(capsys, "make", "random", "--n", "5", "--seed", "42", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_make_product(tmp_path, capsys):
    g2 = tmp_path / "g2.json"
    run(capsys, "make", "ghz", "--n", "2", "-o", str(g2))
    out_file = tmp_path / "g4p.json"
    code, _, _ = run(capsys, "make", "product", str(g2), str(g2), "-o", str(out_file))
    assert code == 0
    s = load_state(out_file)
    assert s.n == 4
    assert s.amplitudes[0] == pytest.approx(0.5)


def test_make_complement(tmp_path, capsys):
    src = tmp_path / "w3.json"
    run(capsys, "make", "w", "--n", "3", "-o", str(src))
    dst = tmp_path / "w3c.json"
    assert run(capsys, "make", "complement", str(src), "-o", str(dst))[0] == 0
    np.testing.assert_array_equal(
        load_state(dst).amplitudes, complement(load_state(src)).amplitudes)


def test_make_rejects_oversized_n(tmp_path, capsys):
    code, _, err = run(capsys, "make", "ghz", "--n", "30",
                       "-o", str(tmp_path / "x.json"))
    assert code == 1
    assert "max-n" in err
    code, _, _ = run(capsys, "make", "ghz", "--n", "8", "--max-n", "6",
                     "-o", str(tmp_path / "x.json"))
    assert code == 1


def test_invariant_report_ghz4(tmp_path, capsys):
    f = tmp_path / "g4.json"
    run(capsys, "make", "ghz", "--n", "4", "-o", str(f))
    code, out, _ = run(capsys, "invariant", "--input", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] == pytest.approx(1.0, abs=1e-12)
    assert doc["vanishing"]["tau"] is False
    assert doc["invariants"]["parity"] == "even"
    assert doc["invariants"]["iv_star"][0] == pytest.approx(0.5)
    assert doc["criteria"] is not None
    assert doc["criteria"]["d_criteria"][0]["vanishing"] == [True, True, True]


def test_invariant_report_w5(tmp_path, capsys):
    f = tmp_path / "w5.json"
    run(capsys, "make", "w", "--n", "5", "-o", str(f))
    doc = json.loads(run(capsys, "invariant", "--input", str(f))[1])
    assert doc["tau"] <= 1e-10
    assert doc["vanishing"]["tau"] is True


def test_invariant_report_cluster_with_oracle(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "make", "cluster-c", "-o", str(f))
    doc = json.loads(run(capsys, "invariant", "--input", str(f), "--oracle")[1])
    assert doc["tau"] == pytest.approx(1.0, abs=1e-12)
    d_entry = doc["criteria"]["d_criteria"][0]
    assert d_entry["d2"][0] == pytest.approx(1 / 36)
    assert doc["oracle"]["iv4"][0] == pytest.approx(0.5)


def test_invariant_skips_criteria_for_large_n(tmp_path, capsys):
    f = tmp_path / "r7.json"
    run(capsys, "make", "random", "--n", "7", "--seed", "3", "-o", str(f))
    doc = json.loads(run(capsys, "invariant", "--input", str(f))[1])
    assert doc["criteria"] is None
    assert "criteria_note" in doc


def test_apply_sigma_x_matches_complement(tmp_path, capsys):
    src = tmp_path / "r5.json"
    run(capsys, "make", "random", "--n", "5", "--seed", "9", "-o", str(src))
    ops = tmp_path / "ops.json"
    sx = [[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]] * 5
    ops.write_text(json.dumps({"ops": sx}))
    dst = tmp_path / "out.json"
    code, out, _ = run(capsys, "apply", "--input", str(src), "--ops", str(ops),
                       "--output", str(dst), "--print-dets")
    assert code == 0
    assert "det_product = -1" in out
    np.testing.assert_array_equal(
        load_state(dst).amplitudes, complement(load_state(src)).amplitudes)


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "1", "--n", "6",
                       "--trials", "50", "--seed", "1")
    assert code == 0
    assert "max_rel_error" in out
    code, _, _ = run(capsys, "verify", "--theorem", "2", "--n", "5",
                     "--trials", "50", "--seed", "1")
    assert code == 0


def test_verify_parity_error_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "1", "--n", "5",
                       "--trials", "10", "--seed", "1")
    assert code == 1
    assert "error" in err


def test_compare_exit_codes(tmp_path, capsys):
    g3, w3 = tmp_path / "g3.json", tmp_path / "w3.json"
    run(capsys, "make", "ghz", "--n", "3", "-o", str(g3))
    run(capsys, "make", "w", "--n", "3", "-o", str(w3))
    code, out, _ = run(capsys, "compare", str(g3), str(w3))
    assert code == 2
    assert json.loads(out)["outcome"] == "ProvablyInequivalent"

    g4, c4 = tmp_path / "g4.json", tmp_path / "c4.json"
    run(capsys, "make", "ghz", "--n", "4", "-o", str(g4))
    run(capsys, "make", "cluster-c", "-o", str(c4))
    code, out, _ = run(capsys, "compare", str(g4), str(c4))
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "Undetermined"
    assert doc["heuristic_flags"]


def test_signs_output(capsys):
    assert json.loads(run(capsys, "signs", "--n", "4")[1]) == [1, -1]
    assert json.loads(run(capsys, "signs", "--n", "4", "--star")[1]) == [1, -1, -1, 1]
    assert json.loads(run(capsys, "signs", "--n", "6")[1]) == [1, -1, -1, 1, -1, 1, 1, -1]


def test_criteria_enumerate(capsys):
    code, out, _ = run(capsys, "criteria", "enumerate", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["tuples"] == [[0, 7, 1, 6, 2, 5, 3, 4]]
    assert doc["sums"] == [7]
    assert "excluded" in doc["note"]


def test_criteria_enumerate_refuses_large_n(capsys):
    code, _, err = run(capsys, "criteria", "enumerate", "--n", "9")
    assert code == 1
    assert "force-f" in err


def test_criteria_evaluate_d_only(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "make", "cluster-c", "-o", str(f))
    code, out, _ = run(capsys, "criteria", "--input", str(f), "--set", "d")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_criteria"][0]["d2"][0] == pytest.approx(1 / 36)


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "invariant", "--input", "/nonexistent/state.json")
    assert code == 1
    assert "error" in err


def test_bad_json_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run(capsys, "invariant", "--input", str(f))
    assert code == 1
    assert "error" in err


def test_apply_malformed_ops_file_exits_one(tmp_path, capsys):
    src, ops, dst = tmp_path / "g2.json", tmp_path / "ops.json", tmp_path / "out.json"
    run(capsys, "make", "ghz", "--n", "2", "-o", str(src))
    ops.write_text('{"n": 1, "ops": [')
    code, out, err = run(capsys, "apply", "--input", str(src), "--ops", str(ops),
                         "--output", str(dst))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not dst.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["invariant", "criteria", "compare"])
def test_norm_overflow_exits_one_with_one_line(tmp_path, capsys, command):
    # 1e80: |s|^2 = 2e160 and the degree-4 threshold max(1, |s|^2)**2 overflows;
    # 1e200: |s|^2 is itself inf
    for amplitude in (1e80, 1e200):
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"n": 3, "amplitudes": [[amplitude, 0.0]] + [[0.0, 0.0]] * 6
                                                      + [[amplitude, 0.0]]}))
        argv = [command, str(f), str(f)] if command == "compare" else [command, "--input", str(f)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "too large" in err


def test_state_file_roundtrip_via_cli(tmp_path, capsys):
    f = tmp_path / "r.json"
    run(capsys, "make", "random", "--n", "4", "--seed", "17", "-o", str(f))
    loaded = load_state(f)
    np.testing.assert_array_equal(loaded.amplitudes, random_state(4, 17).amplitudes)
    back = tmp_path / "r2.json"
    save_state(loaded, back)
    assert f.read_bytes() == back.read_bytes()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sloccinv.cli", "signs", "--n", "5"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [1, -1, -1, 1]


def test_make_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "make", "ghz", "--n", "3")
    assert code == 0
    assert "ghz3.json" in out
    assert load_state(tmp_path / "ghz3.json").n == 3


def test_invariant_tol_flag_changes_vanishing(tmp_path, capsys):
    # tau(W4) is exactly 0 but iv at 1e-1 tolerance flags everything as vanishing
    f = tmp_path / "g4.json"
    run(capsys, "make", "ghz", "--n", "4", "-o", str(f))
    strict = json.loads(run(capsys, "invariant", "--input", str(f))[1])
    loose = json.loads(run(capsys, "invariant", "--input", str(f), "--tol", "2.0")[1])
    assert strict["vanishing"]["tau"] is False
    assert loose["vanishing"]["tau"] is True


def test_bad_flag_values_exit_via_argparse(capsys):
    # usage errors exit 1 with one line, never 2: compare keeps 2 for
    # ProvablyInequivalent
    bad = [["verify", "--theorem", "1", "--n", "4", "--trials", "0", "--seed", "1"],
           ["compare", "a.json", "b.json", "--tol", "x"], ["frobnicate"], []]
    for tol in ("-1", "0", "nan", "inf"):
        bad += [["invariant", "--input", "x.json", "--tol", tol],
                ["compare", "a.json", "b.json", "--tol", tol]]
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("ops", [
    '{"ops": [[[true, 0], ["0", 0], [0, false], ["1e0", 0]]]}',
    '{"ops": [[[1, 0], [0, 0], [0, 0], [1, false]]]}',
    '{"ops": [[[1, 0], [0, 0], [0, 0], ["1", 0]]]}',
    '{"ops": [[[1, 0, 0], [0, 0], [0, 0], [1, 0]]]}',
    '{"ops": [[[1, 0], [0, 0], [1, 0]]]}',
    '{"ops": [[[1, 0], [0, 0], [0, 0], [1, 0], [0, 0]]]}',
    '{"ops": ["abcd"]}',
    '{"ops": [5]}',
    '{"ops": [[[1e400, 0], [0, 0], [0, 0], [1, 0]]]}',
    '{"ops": [[[1%s, 0], [0, 0], [0, 0], [1, 0]]]}' % ("0" * 400),
    '{"ops": [[[NaN, 0], [0, 0], [0, 0], [1, 0]]]}',
])
def test_apply_rejects_ops_outside_the_pair_schema(tmp_path, capsys, ops):
    # operator entries are [re, im] number pairs, parsed as in state files
    src, ops_file, dst = tmp_path / "g1.json", tmp_path / "ops.json", tmp_path / "out.json"
    run(capsys, "make", "ghz", "--n", "1", "-o", str(src))
    ops_file.write_text(ops)
    assert_one_error_line(*run(capsys, "apply", "--input", str(src), "--ops", str(ops_file),
                               "--output", str(dst), "--print-dets"))
    assert not dst.exists()


def test_cli_writes_no_state_file_it_could_not_read(tmp_path, capsys):
    # overflow to inf, underflow to zero, and a zero operator: exit 1, no file
    for amplitude in (1e200, 1e-200):
        src, dst = tmp_path / "a.json", tmp_path / "p.json"
        src.write_text(json.dumps({"n": 1, "amplitudes": [[amplitude, 0], [amplitude, 0]]}))
        assert_one_error_line(*run(capsys, "make", "product", str(src), str(src), "-o", str(dst)))
        assert not dst.exists()
    ops, dst = tmp_path / "zero.json", tmp_path / "z.json"
    ops.write_text(json.dumps({"ops": [[[0, 0]] * 4]}))
    assert_one_error_line(*run(capsys, "apply", "--input", str(src), "--ops", str(ops),
                               "--output", str(dst)))
    assert not dst.exists()


@pytest.mark.parametrize("argv", [
    ["make", "ghz", "--n", "3", "--tol=1e-9"],
    ["apply", "--input", "a.json", "--ops", "o.json", "--output", "b.json", "--tol=1e-9"],
    ["verify", "--theorem", "1", "--n", "4", "--trials", "2", "--tol=5"],
    ["signs", "--n", "4", "--tol=1e-9"],
    ["invariant", "--input", "a.json", "--seed=1"],
    ["criteria", "--input", "a.json", "--seed=1"],
    ["compare", "a.json", "b.json", "--seed=1"],
    ["apply", "--input", "a.json", "--ops", "o.json", "--output", "b.json", "--seed=1"],
    ["signs", "--n", "4", "--seed=1"],
])
def test_commands_refuse_flags_they_do_not_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


def test_every_command_takes_max_n(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "make", "ghz", "--n", "3", "-o", "g.json", "--max-n", "3")[0] == 0
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps({"ops": [[[1, 0], [0, 0], [0, 0], [1, 0]]] * 3}))
    for argv in (["invariant", "--input", "g.json"], ["criteria", "--input", "g.json"],
                 ["compare", "g.json", "g.json"],
                 ["apply", "--input", "g.json", "--ops", "ops.json", "--output", "h.json"],
                 ["verify", "--theorem", "2", "--n", "3", "--trials", "2"],
                 ["signs", "--n", "3"]):
        assert run(capsys, *argv, "--max-n", "3")[0] == 0, argv
        assert_one_error_line(*run(capsys, *argv, "--max-n", "2"))
