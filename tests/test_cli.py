"""End-to-end CLI behavior: files, JSON documents, exit codes."""

import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sloccinv import (achieved_pair_sums, cluster_c, complement, criteria, f_enumerate, ghz,
                      load_state, new_state, random_state, save_state, w_state)
from sloccinv import cli, slocc, statevec
from sloccinv.cli import build_parser, main


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
    # the input files may follow an option
    again = tmp_path / "again.json"
    assert run(capsys, "make", "product", "-o", str(again), str(g2), str(g2))[0] == 0
    assert again.read_bytes() == out_file.read_bytes()


def test_make_complement(tmp_path, capsys):
    src = tmp_path / "w3.json"
    run(capsys, "make", "w", "--n", "3", "-o", str(src))
    dst = tmp_path / "w3c.json"
    assert run(capsys, "make", "complement", str(src), "-o", str(dst))[0] == 0
    np.testing.assert_array_equal(
        load_state(dst).amplitudes, complement(load_state(src)).amplitudes)
    again = tmp_path / "again.json"
    assert run(capsys, "make", "complement", "--max-n", "9", str(src), "-o", str(again))[0] == 0
    assert again.read_bytes() == dst.read_bytes()


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
    # byte for byte the indented JSON of the list form
    for n in range(3, 7):
        code, out, _ = run(capsys, "criteria", "enumerate", "--n", str(n))
        tuples = f_enumerate(n)
        expected = {"n": n, "count": len(tuples), "sums": achieved_pair_sums(n),
                    "tuples": tuples.tolist(), "note": doc["note"]}
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"


def test_criteria_enumerate_refuses_large_n(tmp_path, capsys):
    code, out, err = run(capsys, "criteria", "enumerate", "--n", "9")
    assert_one_error_line(code, out, err)
    assert err.endswith("above the 4 GiB budget\n") and "force-f" not in err
    f = tmp_path / "r9.json"
    save_state(random_state(9, 1), f)
    code, out, err = run(capsys, "criteria", "--input", str(f), "--set", "f")
    assert_one_error_line(code, out, err)
    assert err.endswith("above the 4 GiB budget\n") and "force-f" not in err


def test_f_sets_that_cannot_fit_are_refused_before_enumerating(tmp_path, capsys, monkeypatch):
    def never(n):
        raise AssertionError("f_enumerate must not be called")

    monkeypatch.setattr(criteria, "f_enumerate", never)
    f = tmp_path / "r9.json"
    save_state(random_state(9, 1), f)
    for argv in (["criteria", "enumerate", "--n", "9"],
                 ["criteria", "--input", str(f), "--set", "all"],
                 ["criteria", "--input", str(f), "--set", "f"]):
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert "n=9 need 486432640 tuples" in err and "GiB" in err
    code, out, err = run(capsys, "criteria", "enumerate", "--n", "5000", "--max-n", "5000")
    assert_one_error_line(code, out, err)
    assert "beyond int64" in err
    code, out, _ = run(capsys, "criteria", "--input", str(f), "--set", "d")
    assert code == 0 and json.loads(out)["f_included"] is False


def test_f_work_that_cannot_fit_is_refused_only_when_asked_for(tmp_path, capsys, monkeypatch):
    # f_enumerate raises if called, so no tuple is built on any path
    def never(n):
        raise AssertionError("f_enumerate must not be called")

    monkeypatch.setattr(criteria, "f_enumerate", never)
    f = tmp_path / "r8.json"
    save_state(random_state(8, 1), f)
    for argv in (["--set", "f"], ["--set", "all"]):
        code, out, err = run(capsys, "criteria", "--input", str(f), *argv)
        assert_one_error_line(code, out, err)
        assert "n=8 need 25757088 tuples" in err and "4 GiB budget" in err
    code, out, _ = run(capsys, "criteria", "--input", str(f))
    assert code == 0 and json.loads(out)["f_included"] is False


def test_criteria_enumerate_accepts_explicit_defaults(capsys):
    code, out, _ = run(capsys, "criteria", "enumerate", "--n", "3", "--tol", "1e-10")
    assert code == 0
    assert out == run(capsys, "criteria", "enumerate", "--n", "3")[1]


def test_n_below_the_command_floor_exits_one(tmp_path, capsys):
    runs = [(["verify", "--theorem", "1", "--n", "1"], 2),
            (["criteria", "enumerate", "--n", "2"], 3)]
    for n in (1, 2):  # F has no tuple below n=3: asking for it is refused, not dropped
        f = tmp_path / f"g{n}.json"
        run(capsys, "make", "ghz", "--n", str(n), "-o", str(f))
        runs += [(["criteria", "--input", str(f), "--set", choice], 3) for choice in ("f", "all")]
        code, out, _ = run(capsys, "criteria", "--input", str(f))
        assert code == 0 and json.loads(out)["f_included"] is False
        assert out == run(capsys, "criteria", "--input", str(f), "--set", "d")[1]
    for argv, floor in runs:
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert f"need n >= {floor}" in err


def test_criteria_set_f_empties_the_d_list(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "make", "cluster-c", "-o", str(f))
    code, out, _ = run(capsys, "criteria", "--input", str(f), "--set", "f")
    assert code == 0
    doc = json.loads(out)
    assert doc["d_criteria"] == []
    assert doc["f_included"] is True and len(doc["f_criteria"]) == 78


def test_criteria_needs_an_input(capsys):
    code, out, err = run(capsys, "criteria")
    assert_one_error_line(code, out, err)
    assert "requires --input" in err


def test_criteria_enumerate_needs_n(capsys):
    code, out, err = run(capsys, "criteria", "enumerate")
    assert_one_error_line(code, out, err)
    assert err == "error: criteria enumerate requires --n\n"


def test_criteria_at_n7_evaluates_f_only_when_asked_for(tmp_path, capsys, monkeypatch):
    f = tmp_path / "r7.json"
    run(capsys, "make", "random", "--n", "7", "-o", str(f))
    code, out, _ = run(capsys, "criteria", "--input", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["f_included"] is False and doc["f_criteria"] is None
    assert len(doc["d_criteria"]) == 8
    assert out == run(capsys, "criteria", "--input", str(f), "--set", "d")[1]
    # an explicit --set f|all asks for F; its 1 311 856 tuples are not built here
    evaluate, asked = criteria.criteria_signature, []

    def signature(s, tol, include_f=None):
        asked.append(include_f)
        return evaluate(s, tol, include_f=False)

    monkeypatch.setattr(criteria, "criteria_signature", signature)
    for argv, want in ((["--set", "f"], True), (["--set", "all"], True), ([], None)):
        assert run(capsys, "criteria", "--input", str(f), *argv)[0] == 0
        assert asked.pop() is want


def test_all_zero_state_file_exits_one(tmp_path, capsys):
    f = tmp_path / "zero.json"
    f.write_text(json.dumps({"n": 2, "amplitudes": [[0, 0], [0.0, -0.0], [0, 0], [0, 0]]}))
    for argv in (["invariant", "--input", str(f)], ["compare", str(f), str(f)]):
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert "no nonzero amplitude" in err


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


def test_bad_utf8_in_a_state_file_exits_one(tmp_path, capsys):
    # the stream's first read decodes a whole chunk of the file, not just the head
    data = (tmp_path / "r12.json")
    save_state(random_state(12, 1), data)
    data = data.read_bytes()
    for name, bad in (("start.json", b"\xff" + data[1:]),
                      ("utf16.json", b"\xff\xfe" + data.decode().encode("utf-16-le")),
                      ("chunk.json", data[:4000] + b"\xff" + data[4001:]),
                      ("late.json", data[:-5000] + b"\xff" + data[-4999:])):
        (tmp_path / name).write_bytes(bad)
        for argv in (["invariant", "--input", name], ["compare", name, "r12.json"],
                     ["make", "complement", name, "-o", "o.json"]):
            code, out, err = run(capsys, *[str(tmp_path / a) if a.endswith(".json") else a
                                           for a in argv])
            assert_one_error_line(code, out, err)
            assert "invalid JSON: 'utf-8' codec can't decode byte 0xff" in err, (name, argv)
    assert not (tmp_path / "o.json").exists()


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


def _top_of_range_file(tmp_path, n):
    # finite parts, but |a0| = 2.1e308 is not a finite float
    f = tmp_path / f"top{n}.json"
    f.write_text(json.dumps({"n": n, "amplitudes": [[1.5e308, 1.5e308]]
                             + [[0, 0]] * ((1 << n) - 2) + [[1, 0]]}))
    return str(f)


@pytest.mark.parametrize("n", [2, 3])
def test_top_of_range_states_never_blame_tol(tmp_path, capsys, n):
    f = _top_of_range_file(tmp_path, n)
    code, out, err = run(capsys, "criteria", "--input", f)
    assert code == 0 and err == ""
    assert json.loads(out)["n"] == n
    for argv in (["invariant", "--input", f], ["compare", f, f]):
        code, out, err = run(capsys, *argv)
        assert_one_error_line(code, out, err)
        assert re.fullmatch(r"error: raw value \|v\| = \S+ \* 2\*\*\d+ is too large for a float\n",
                            err), err


def test_huge_tol_names_tol_in_its_one_line(tmp_path, capsys):
    # |s|^2 of w6 is 1; the threshold on its scaled state is tol * 4, beyond the float range
    f = tmp_path / "w6.json"
    run(capsys, "make", "w", "--n", "6", "-o", str(f))
    code, out, err = run(capsys, "invariant", "--input", str(f), "--tol", "1e308")
    assert_one_error_line(code, out, err)
    assert "tol = 1e+308" in err and "degree-2" in err and "too large" in err
    assert "|s|^2 = 4" not in err


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
    # not an {"ops": [...]} object at all
    '[]', '[{"ops": []}]', '{"ops": 3}', '{"operators": []}',
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
    # each make kind takes only what it reads
    ["make", "cluster-c", "--n", "4"],
    ["make", "product", "a.json", "b.json", "--n", "4"],
    ["make", "complement", "a.json", "--n", "4"],
    ["make", "ghz", "--n", "3", "--seed", "7"],
    ["make", "w", "--n", "3", "--seed", "7"],
    ["make", "cluster-c", "--seed", "7"],
    ["make", "product", "a.json", "b.json", "--seed", "7"],
    ["make", "complement", "a.json", "--seed", "7"],
    ["make", "ghz", "a.json", "--n", "3"],
    ["make", "w", "a.json", "--n", "3"],
    ["make", "cluster-c", "a.json"],
    ["make", "random", "a.json", "--n", "3"],
    ["make", "product", "a.json", "b.json", "c.json"],
    ["make", "complement", "a.json", "b.json"],
    # criteria enumerate reads only --n and --max-n; evaluation never reads --n
    ["criteria", "enumerate", "--n", "3", "--input", "nonexist.json", "--set", "d", "--tol", "5"],
    ["criteria", "enumerate", "--n", "3", "--input", "a.json"],
    ["criteria", "enumerate", "--n", "3", "--set", "d"],
    ["criteria", "enumerate", "--n", "3", "--tol", "5"],
    ["criteria", "enumerate", "--n", "3", "--force-f"],
    ["criteria", "--input", "a.json", "enumerate", "--n", "3"],
    ["criteria", "--set", "d", "enumerate", "--n", "3"],
    ["criteria", "--n", "3", "--input", "g3.json", "--set", "d"],
    ["criteria", "--n", "3"],
    # criteria enumerate reads no --set, and no command has --force-f
    ["criteria", "enumerate", "--n", "3", "--set", "all"],
    ["criteria", "--input", "g.json", "--force-f"],
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


def test_max_n_is_checked_from_the_head_of_a_saved_file(tmp_path, capsys, monkeypatch):
    # a file in save_state's layout is refused by its head's n before any
    # amplitude is converted, even when its list is broken; any other
    # layout is parsed first, then capped
    monkeypatch.chdir(tmp_path)
    save_state(random_state(12, 1), "r12.json")
    Path("broken.json").write_text('{"n": 12, "amplitudes": [[1, 0]]}')
    Path("pretty.json").write_text(json.dumps(json.loads(Path("r12.json").read_text()), indent=1))
    converted = []
    convert = statevec._complex_pairs
    monkeypatch.setattr(statevec, "_complex_pairs", lambda entries, what:
                        converted.append(len(entries)) or convert(entries, what))
    ops = {"ops": [[[1, 0], [0, 0], [0, 0], [1, 0]]] * 12}
    Path("ops.json").write_text(json.dumps(ops))
    for argv in (["invariant", "--input", "r12.json"], ["compare", "r12.json", "r12.json"],
                 ["apply", "--input", "r12.json", "--ops", "ops.json", "--output", "o.json"],
                 ["invariant", "--input", "broken.json"]):
        code, out, err = run(capsys, *argv, "--max-n", "10")
        assert_one_error_line(code, out, err)
        assert "n=12 exceeds the cap 10 (raise it with --max-n)" in err, argv
    assert converted == [] and not Path("o.json").exists()
    code, out, err = run(capsys, "invariant", "--input", "broken.json", "--max-n", "12")
    assert_one_error_line(code, out, err)
    assert "expected 2**12 amplitude entries for n=12" in err
    code, out, err = run(capsys, "invariant", "--input", "pretty.json", "--max-n", "10")
    assert_one_error_line(code, out, err)
    assert "n=12 exceeds the cap 10" in err and converted == [4096]


@pytest.mark.parametrize("argv", [
    ["make", "-o", "x.json", "ghz", "--n", "3"],
    ["make", "--max-n", "9", "ghz", "--n", "3"],
    ["make", "--output=x.json", "cluster-c"],
    ["make", "ghz"],
    ["make", "random"],
    ["make", "product", "a.json"],
    ["make", "complement"],
    ["make", "bell"],
    ["make"],
])
def test_make_usage_errors_exit_one(tmp_path, capsys, monkeypatch, argv):
    # options go after the kind word; before it they are not make's
    monkeypatch.chdir(tmp_path)
    assert_one_error_line(*run(capsys, *argv))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [20_000, 1 << 40])
def test_huge_declared_n_exits_one(tmp_path, capsys, n):
    # 1 << n is never built: at n = 2**40 it would be a 128 GiB integer
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"n": n, "amplitudes": []}))
    assert_one_error_line(*run(capsys, "compare", str(f), str(f)))


@pytest.mark.parametrize("module, name, argv", [
    ("statevec", "ghz", ["make", "ghz", "--n", "40", "--max-n", "40"]),
    ("signtab", "sign_table", ["signs", "--n", "40", "--max-n", "40"]),
    ("slocc", "verify_theorem1",
     ["verify", "--theorem", "1", "--n", "40", "--max-n", "40", "--trials", "1"]),
])
@pytest.mark.parametrize("message", ["Unable to allocate 16.0 TiB", ""])
def test_allocation_failure_exits_one(tmp_path, capsys, monkeypatch, module, name, argv,
                                      message):
    # a real 2**40 allocation may succeed lazily on an overcommitting host
    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(getattr(cli, module), name, refuse)
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: {message or 'MemoryError'}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [59, 70])
@pytest.mark.parametrize("argv", [
    ["make", "ghz", "-o", "x.json"],
    ["make", "w", "-o", "x.json"],
    ["make", "random", "-o", "x.json"],
    ["verify", "--theorem", "1", "--trials", "1"],
])
def test_vector_beyond_numpys_array_limit_exits_one(tmp_path, capsys, monkeypatch, argv, n):
    # numpy refuses an array above 2**63 - 1 bytes before allocating; an n in
    # 35..58 may be allocated lazily on an overcommitting host, so none is run
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--n", str(n), "--max-n", "100")
    assert_one_error_line(code, out, err)
    assert f"n={n} needs 2^{n} amplitudes" in err
    assert list(tmp_path.iterdir()) == []


def test_state_file_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    # Python refuses to convert an integer literal of more than 4300 digits
    f = tmp_path / "digits.json"
    f.write_text('{"n": %s, "amplitudes": [[1, 0], [0, 0]]}' % ("1" * 5000))
    assert_one_error_line(*run(capsys, "invariant", "--input", str(f)))


@pytest.mark.parametrize("argv", [
    ["make", "random", "--n", "3", "--seed", "-1"],
    ["verify", "--theorem", "1", "--n", "4", "--trials", "1", "--seed", "-1"],
])
def test_negative_seed_exits_one(tmp_path, capsys, monkeypatch, argv):
    # numpy's generators take only non-negative seeds
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: argument --seed:"), err
    assert list(tmp_path.iterdir()) == []


def test_deeply_nested_json_exits_one(tmp_path, capsys):
    # json's C decoder raises RecursionError, not ValueError, past the recursion limit
    g2, ops, dst = tmp_path / "g2.json", tmp_path / "deep.json", tmp_path / "out.json"
    run(capsys, "make", "ghz", "--n", "2", "-o", str(g2))
    ops.write_text("[" * 200_000)
    saved = tmp_path / "saved.json"  # save_state's head and tail around the nesting
    saved.write_text('{"n": 1, "amplitudes": [' + "[" * 200_000 + "]" * 200_001 + "}\n")
    for deep in (ops, saved):
        assert_one_error_line(*run(capsys, "compare", str(deep), str(deep)))
    assert_one_error_line(*run(capsys, "apply", "--input", str(g2), "--ops", str(ops),
                               "--output", str(dst)))
    assert not dst.exists()


def test_reports_are_written_in_row_blocks(tmp_path):
    # the n=6 criteria report is 15.6 MB; built as one string, writing it peaked at 46 MB
    sig = criteria.criteria_signature(random_state(6, 1))
    doc = cli._signature_doc(sig)

    def write():
        cli._dumps(doc, *cli._signature_slots(sig))

    with redirect_stdout(io.StringIO()) as out:
        write()
    size = len(out.getvalue())
    with open(os.devnull, "w", encoding="utf-8") as devnull, redirect_stdout(devnull):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert size > 15_000_000
    assert peak < size / 4, (peak, size)


def _traced_peak(*argv):
    """The tracemalloc peak of one CLI run, its output discarded, after a
    warm-up run that fills the caches (sign tables, F tuples, imports)."""
    with open(os.devnull, "w", encoding="utf-8") as devnull, redirect_stdout(devnull):
        main(list(argv))
        tracemalloc.start()
        try:
            code = main(list(argv))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code in (0, 2), argv
    return peak


@pytest.fixture(scope="module")
def n18_pair(tmp_path_factory):
    """A random n=18 state file and its image under a unit-determinant chain."""
    d = tmp_path_factory.mktemp("n18")
    a, b, ops = d / "a.json", d / "b.json", d / "ops.json"
    save_state(random_state(18, 7), a)
    with open(ops, "w", encoding="utf-8") as fh:
        json.dump(slocc.ops_json_dict(slocc.random_chain(18, 7, unit_det=True)), fh)
    assert main(["apply", "--input", str(a), "--ops", str(ops), "--output", str(b)]) == 0
    return a, b, ops


VECTOR_18 = 16 << 18  # bytes of an n=18 amplitude vector


def test_make_random_holds_no_vector(tmp_path):
    # the draw is streamed to the file through one 512 KiB row; drawing the
    # vector first peaked at 5.5 MiB, the vector and save_state's slabs
    peak = _traced_peak("make", "random", "--n", "18", "--seed", "1",
                        "-o", str(tmp_path / "r18.json"))
    assert peak < VECTOR_18 / 4, peak / VECTOR_18


def test_apply_folds_the_loaded_vector_in_place(tmp_path, n18_pair):
    # apply_chain's output vector made the peak 9.4 MiB, two vectors and the slabs
    a, _, ops = n18_pair
    peak = _traced_peak("apply", "--input", str(a), "--ops", str(ops),
                        "--output", str(tmp_path / "c.json"))
    assert peak - VECTOR_18 < VECTOR_18 / 4, peak / VECTOR_18


def test_compare_holds_one_state_at_a_time(n18_pair):
    # both states loaded first peaked at 10.5 MiB, two vectors and the reports
    a, b, _ = n18_pair
    peak = _traced_peak("compare", str(a), str(b))
    assert peak < 1.5 * VECTOR_18, peak / VECTOR_18


def test_make_random_streams_the_file_and_norm_of_the_vector(tmp_path, capsys):
    # the streamed draw writes save_state(random_state(n, seed)) and prints its
    # norm (17 digits: bit for bit); above n = 16 the draw has more than two
    # 512 KiB rows, and from n = 14 each part of a row takes several rng calls
    ref = tmp_path / "ref.json"
    for n in range(1, 21):
        for seed in (0, 7, 2**31 - 1):
            path = tmp_path / f"r{n}_{seed}.json"
            code, out, err = run(capsys, "make", "random", "--n", str(n), "--seed", str(seed),
                                 "-o", str(path))
            s = random_state(n, seed)
            save_state(s, ref)
            assert (code, out, err) == (0, f"n={n} norm={s.norm():.17g} -> {path}\n", "")
            assert path.read_bytes() == ref.read_bytes(), (n, seed)


def _scaled_file(tmp_path, name, s, factor):
    path = tmp_path / name
    save_state(new_state(s.n, factor * s.amplitudes), path)
    return str(path)


# compare's exit code and the sha256 of its stdout on exact states, pinned
# where both states were loaded before either was evaluated
COMPARE_DIGESTS = [
    ("w3.json g3.json", 2, "a73b5da3d708e80bba3ccb3485baeed5b97e3441eb68b3757e7d9ffbc41023b2"),
    ("g3.json w3c.json", 2, "325e1283291fba6d537a125f8e274d126f32533bc2408e83a723872f201fb839"),
    ("w3.json w3c.json", 0, "4dc390a04121907937b043843aeafc16620bf2caea44d38bf22720ecca4bfc85"),
    ("c.json g4.json", 0, "86d080c43d2849d3cc99efd03b43d9b4c6bdf6a4df550946b9e98e00b033f0de"),
    ("g4.json w4.json", 2, "91dc2583ce0eb8f84906d84713cc33856c85590b757bd8a0e39ad7ab66853db4"),
    ("w4.json p4.json", 2, "d927afe945ce4da2a718440a1271fa13da0f3c54155e224c230a4f6795fcc42d"),
    ("p4.json g4.json", 0, "c50853bc9703bdf32c16fc50de31db7aea4b8caabe15fd9e3e3e7d60c664dbe4"),
    ("c.json c.json", 0, "7eb7cbf5aa115286cbd09f2af463499ce10d453953694eedb5227baa049fdc40"),
    ("w6.json g6.json", 2, "c652312e0cb84fbe98b3a116332a78cc1a5daec0511811a2f81a0a066b29da82"),
    ("g5.json w5.json", 2, "325e1283291fba6d537a125f8e274d126f32533bc2408e83a723872f201fb839"),
]


def test_compare_verdicts_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["ghz", "--n", "3", "-o", "g3.json"], ["w", "--n", "3", "-o", "w3.json"],
                 ["complement", "w3.json", "-o", "w3c.json"], ["ghz", "--n", "4", "-o", "g4.json"],
                 ["w", "--n", "4", "-o", "w4.json"], ["cluster-c", "-o", "c.json"],
                 ["ghz", "--n", "2", "-o", "g2.json"],
                 ["product", "g2.json", "g2.json", "-o", "p4.json"],
                 ["ghz", "--n", "5", "-o", "g5.json"], ["w", "--n", "5", "-o", "w5.json"],
                 ["ghz", "--n", "6", "-o", "g6.json"], ["w", "--n", "6", "-o", "w6.json"]):
        assert run(capsys, "make", *argv)[0] == 0
    for pair, want_code, digest in COMPARE_DIGESTS:
        code, out, err = run(capsys, "compare", *pair.split())
        assert (code, err) == (want_code, ""), pair
        assert hashlib.sha256(out.encode()).hexdigest() == digest, pair


def test_compare_errors_come_in_the_order_of_both_states_loaded_first(tmp_path, capsys):
    # 1e100 * ghz(3): its odd invariant and its D/F values overflow
    big3 = _scaled_file(tmp_path, "big3.json", ghz(3), 1e100)
    g4 = _scaled_file(tmp_path, "g4.json", ghz(4), 1.0)
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "amplitudes": [[1, 0], ')
    code, out, err = run(capsys, "compare", big3, str(bad))
    assert_one_error_line(code, out, err)
    assert "invalid JSON" in err
    code, out, err = run(capsys, "compare", big3, g4)
    assert_one_error_line(code, out, err)
    assert err == "error: cannot compare n=3 with n=4\n"
    code, out, err = run(capsys, "compare", g4, big3)
    assert err == "error: cannot compare n=4 with n=3\n"
    code, out, err = run(capsys, "compare", big3, str(tmp_path / "missing.json"))
    assert_one_error_line(code, out, err)
    assert "No such file" in err


def test_tau_decided_compare_ignores_d_and_f_overflow(tmp_path, capsys):
    # at 1e100 the degree-2 tau is finite, while a degree-4 D or F value of
    # ghz(4) or the cluster state is past the float range: the tau rule
    # decides ghz vs w (exit 2) before D/F is needed; ghz vs cluster needs it
    big = {name: _scaled_file(tmp_path, f"{name}.json", s, 1e100)
           for name, s in (("ghz", ghz(4)), ("w", w_state(4)), ("cluster", cluster_c()))}
    for pair in (("ghz", "w"), ("w", "ghz")):
        code, out, err = run(capsys, "compare", *(big[name] for name in pair))
        assert (code, err) == (2, ""), pair
        assert json.loads(out)["outcome"] == "ProvablyInequivalent"
    for pair in (("ghz", "cluster"), ("cluster", "ghz")):
        code, out, err = run(capsys, "compare", *(big[name] for name in pair))
        assert_one_error_line(code, out, err)
        assert "too large for a float" in err, pair


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0]) for line in block.splitlines())
    return [shlex.split(line) for line in lines if line.strip()]


def test_readme_cli_block_parses():
    lines = _readme_cli_lines()
    parser = build_parser()
    for argv in lines:
        assert argv[0] == "sloccinv"
        parser.parse_args(argv[1:])
    assert ["sloccinv", "make", "product", "-o", "g4p.json", "g2.json", "g2.json"] in lines


# sha256 of each report's stdout, trailing newline included, on exact states
# only (a random state's norm goes through BLAS, whose rounding may vary).
REPORT_DIGESTS = [
    ("invariant --input g3.json",
     "7e81df70ad591fe07c4c2ca5d0998e43daca21711ded3d9fe86bd87b513d2dd8"),
    ("invariant --input w3.json",
     "d69cb19577fec2686989214e9ed9852bf700718b590ae02204ccdc170b875f57"),
    ("invariant --input g4.json",
     "69e0a6ae1a6295419acb1cbccb78e8d4f9adeec2b72d9fe9b1f5754c6b4649ba"),
    ("invariant --input c.json --oracle --tol 1e-3",
     "db13f91847db7985fbc85bcce9734ee520812ee8aea058b20d7009347b14cc12"),
    ("invariant --input w5.json",
     "9175a016e92cd6324f44bd6422521ce357966dffcb9d3f1d2ef26c156ec04a41"),
    ("criteria --input c.json",
     "af106fb9f017438b56978c4c61b93bcab08e3dad5867107213ddf8a77b2bb64d"),
    ("compare g3.json w3.json",
     "325e1283291fba6d537a125f8e274d126f32533bc2408e83a723872f201fb839"),
    ("compare g4.json c.json",
     "d5370e4112591b5f922c5ab96be2016728cd83dcbce94c11c213da1dd6764899"),
]


def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["ghz", "--n", "3", "-o", "g3.json"], ["w", "--n", "3", "-o", "w3.json"],
                 ["ghz", "--n", "4", "-o", "g4.json"], ["cluster-c", "-o", "c.json"],
                 ["w", "--n", "5", "-o", "w5.json"]):
        assert run(capsys, "make", *argv)[0] == 0
    for command, digest in REPORT_DIGESTS:
        out = run(capsys, *command.split())[1]
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
