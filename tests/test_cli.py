import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spintransfer
from spintransfer import cli
from spintransfer.cli import main


def run(args):
    return main(args)


def test_build_pst(tmp_path, capsys):
    out = tmp_path / "pst51.json"
    assert run(["build", "--model", "pst", "--n", "51", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 51
    assert len(data["couplings"]) == 50
    assert max(abs(j) for j in data["couplings"]) == pytest.approx(1.0)
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_coupling"] == pytest.approx(1.0)


def test_build_quadratic_reports_bound(tmp_path, capsys):
    out = tmp_path / "quad16.json"
    assert run(["build", "--model", "quadratic", "--n", "16", "--rescale",
                "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["transfer_time_lower_bound"] == pytest.approx(18 * np.pi, rel=1e-12)
    assert summary["alpha"] == pytest.approx(1.0 / 36.0, rel=1e-9)  # center J = N(N+2)/8
    data = json.loads(out.read_text())
    assert max(abs(j) for j in data["couplings"]) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 3):  # the bound holds down to two sites
        assert run(["build", "--model", "quadratic", "--n", str(n)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["transfer_time_lower_bound"] > 0


def test_build_apollaro_table_row(tmp_path):
    out = tmp_path / "apollaro.json"
    assert run(["build", "--model", "apollaro", "--n", "51",
                "--x", "0.4322", "--y", "0.7338", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["couplings"][0] == pytest.approx(0.4322)
    assert data["couplings"][1] == pytest.approx(0.7338)
    assert data["couplings"][2] == 1.0


def test_build_apollaro_requires_xy():
    assert run(["build", "--model", "apollaro", "--n", "51"]) == 2


def test_fidelity_pst_auto_time(tmp_path, capsys):
    chain = tmp_path / "pst8.json"
    run(["build", "--model", "pst", "--n", "8", "--out", str(chain)])
    capsys.readouterr()
    encoding_path = tmp_path / "encoding.json"
    assert run(["fidelity", "--chain", str(chain), "--window", "1",
                "--time", "auto", "--encoding-out", str(encoding_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity_single"] == pytest.approx(1.0, abs=1e-9)
    assert report["best_excitation_count"] == 1
    encoding = json.loads(encoding_path.read_text())
    assert encoding["format_version"] == 1
    assert encoding["singular_values"][0] == pytest.approx(1.0, abs=1e-9)
    assert encoding["input_vectors"][0]["sites"] == [1]


def test_fidelity_zero_time_disjoint_windows(capsys):
    assert run(["fidelity", "--model", "uniform", "--n", "21",
                "--window", "2", "--time", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fidelity_single"] == pytest.approx(0.5, abs=1e-12)


def test_fidelity_encoded_beats_bare(tmp_path, capsys):
    assert run(["fidelity", "--model", "uniform", "--n", "51", "--window", "1"]) == 0
    bare = json.loads(capsys.readouterr().out)["fidelity_single"]
    assert run(["fidelity", "--model", "uniform", "--n", "51", "--window", "5"]) == 0
    encoded = json.loads(capsys.readouterr().out)["fidelity_single"]
    assert encoded > bare


def test_fidelity_missing_file():
    assert run(["fidelity", "--chain", "/nonexistent/chain.json"]) == 2


def test_fidelity_chain_missing_n(tmp_path, capsys):
    path = tmp_path / "no_n.json"
    path.write_text(json.dumps({"format_version": 1, "couplings": [1.0], "fields": [0.0, 0.0]}))
    assert run(["fidelity", "--chain", str(path)]) == 2
    assert "lacks n" in capsys.readouterr().err


def test_fidelity_chain_json_array(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1.0, 2.0]\n")
    assert run(["fidelity", "--chain", str(path)]) == 2
    assert "must be an object" in capsys.readouterr().err


def test_fidelity_chain_unknown_format_version(tmp_path, capsys):
    path = tmp_path / "v2.json"
    assert run(["build", "--model", "uniform", "--n", "5", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["format_version"] = 2
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["fidelity", "--chain", str(path)]) == 2
    assert "format_version" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3.7, 3.0, "3", True], ids=["fraction", "float", "string", "bool"])
def test_fidelity_chain_non_integer_n(n, tmp_path, capsys):
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"format_version": 1, "n": n, "couplings": [1.0, 1.0],
                                "fields": [0.0, 0.0, 0.0]}))
    assert run(["fidelity", "--chain", str(path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_fidelity_encoding_out_bytes(tmp_path):
    # the file the command wrote inline before it called save_encoding
    from spintransfer import eigendecompose, optimal_encoding, pst_chain, pst_transfer_time
    from spintransfer.encoding import _encoding_to_dict
    chain = pst_chain(9)
    t = pst_transfer_time(chain)
    solution = optimal_encoding(eigendecompose(chain), 2, 3, t)
    want = tmp_path / "want.json"
    with open(want, "w") as fh:
        json.dump(_encoding_to_dict(solution), fh, indent=2)
        fh.write("\n")
    got = tmp_path / "got.json"
    assert run(["fidelity", "--model", "pst", "--n", "9", "--window-in", "2",
                "--window-out", "3", "--encoding-out", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


# Each JSON writer: argv with {a} (and {b}) for its JSON files, and whether stdout
# repeats the first file.
JSON_WRITERS = {
    "build": (["build", "--model", "pst", "--n", "9", "--out", "{a}"], False),
    "fidelity": (["fidelity", "--model", "pst", "--n", "9", "--window", "2",
                  "--out", "{a}", "--encoding-out", "{b}"], True),
    "optimize": (["optimize", "--n", "11", "--restarts", "0", "--out", "{a}"], True),
    "oracle": (["oracle", "--n", "6", "--k", "2", "--out", "{a}"], True),
    "sweep": (["sweep", "--model", "uniform", "--n", "9", "--j-axis", "0", "--b-axis", "0.1",
               "--samples", "4", "--out", "{csv}", "--descriptor", "{a}"], False),
}


@pytest.mark.parametrize("case", sorted(JSON_WRITERS))
def test_json_files_share_one_layout(case, tmp_path, capsys):
    argv, prints_report = JSON_WRITERS[case]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    names = {"a": paths[0], "b": paths[1], "csv": tmp_path / "x.csv"}
    assert run([arg.format(**names) for arg in argv]) == 0
    written = [path.read_bytes() for path in paths if path.exists()]
    assert len(written) == (2 if case == "fidelity" else 1)
    for data in written:
        assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()
        assert json.loads(data)["format_version"] == 1
        assert data.endswith(b"}\n")
    if prints_report:
        assert capsys.readouterr().out.encode() == written[0]


def test_fidelity_invalid_window():
    assert run(["fidelity", "--model", "uniform", "--n", "5", "--window", "9"]) == 2


def test_fidelity_takes_one_svd(monkeypatch, capsys):
    # the window block's SVD gives both the report and the encoding
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert run(["fidelity", "--model", "uniform", "--n", "21", "--window", "3"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["best_excitation_count"] >= 1


@pytest.mark.parametrize("window", ["0", "20"])
def test_fidelity_checks_the_window_before_any_solve(window, tmp_path, capsys, monkeypatch):
    # a chain with no arrival peak: a window checked after the peak search would exit 3
    import spintransfer.montecarlo as montecarlo
    path = tmp_path / "weak.json"
    path.write_text(json.dumps({"format_version": 1, "n": 11, "couplings": [1e-3] * 10,
                                "fields": [0.0] * 11}))

    def no_solve(*args, **kwargs):
        raise AssertionError("transfer time solved before the window check")

    monkeypatch.setattr(montecarlo, "auto_transfer_time", no_solve)
    monkeypatch.setattr(cli, "eigendecompose", no_solve)
    assert run(["fidelity", "--chain", str(path), "--window", window]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: window sizes must be in 1..n\n"
    assert captured.out == ""


@pytest.mark.parametrize("time", ["nan", "inf"])
@pytest.mark.parametrize("command", ["fidelity", "sweep"])
def test_non_finite_time_is_a_usage_error(command, time, tmp_path, capsys):
    args = [command, "--model", "uniform", "--n", "11", "--time", time]
    if command == "sweep":
        args += ["--j-axis", "0.1", "--b-axis", "0.1", "--samples", "4",
                 "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: window time must be finite, got {time}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("j_axis, code, err", [
    ("1e12", 0, ""),
    ("1e16", 2, "error: window time 11.917012592443873 is too long for disordered "
                "realization 0: t * max|E| = 3.32116e+17 is not below 2^52\n"),
    ("1e308", 2, "error: disordered realization 0 is not finite: a coupling, a field or its "
                 "spectral bound is beyond the double range\n")])
def test_sweep_refuses_realizations_whose_phases_carry_no_information(j_axis, code, err,
                                                                       tmp_path, capsys):
    # the base chain's time is fine; its drawn realizations reach t * max|E| >= 2^52
    # (1e16) or leave the double range (1e308) before any of them is scored
    out = tmp_path / "z.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--model", "uniform", "--n", "21", "--samples", "5",
                    "--j-axis", j_axis, "--b-axis", "0", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("command", ["fidelity", "sweep"])
def test_time_whose_phases_carry_no_information_is_a_usage_error(command, tmp_path, capsys):
    # uniform N=51 has max|E| = 2 on its Gershgorin interval: t * 2 must stay below 2^52
    # (the sweep draws no disorder, so its realizations are the base chain; the drawn
    # stacks have their own test below)
    out = tmp_path / "x.out"
    for time, code in (("1e300", 2), (repr(2.0 ** 51), 2),
                       (repr(float(np.nextafter(2.0 ** 51, 0.0))), 0)):
        args = [command, "--model", "uniform", "--n", "51", "--time", time, "--out", str(out)]
        if command == "sweep":
            args += ["--j-axis", "0", "--b-axis", "0", "--samples", "4"]
        assert run(args) == code, time
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith(f"error: window time {float(time)!r} is too long")
            assert captured.err.count("\n") == 1 and captured.out == ""
            assert not out.exists()
        else:
            assert captured.err == "" and out.exists()
            out.unlink()


def write_uniform(path, n, coupling):
    path.write_text(json.dumps({"format_version": 1, "n": n, "couplings": [coupling] * (n - 1),
                                "fields": [0.0] * n}))
    return str(path)


@pytest.mark.parametrize("n, coupling, err", [
    *[(n, j, "error: the first-peak scan's step 0.05 is too long for this chain")
      for j in (1e200, 1e300) for n in (4, 5, 8)],
    *[(n, 1e308, "error: this chain is not finite") for n in (3, 5)]])
@pytest.mark.parametrize("command", ["fidelity", "sweep"])
def test_auto_time_on_huge_couplings_is_refused_in_one_line(command, n, coupling, err,
                                                             tmp_path, capsys):
    # the peak scan's Newton step once overflowed a Python float here (a traceback, exit 1):
    # its grid phases, or the chain's spectral bound, carry no information
    out = tmp_path / "x.out"
    args = [command, "--chain", write_uniform(tmp_path / "huge.json", n, coupling),
            "--out", str(out)]
    if command == "sweep":
        args += ["--j-axis", "0", "--b-axis", "0", "--samples", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(err) and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_pst_chain_with_huge_couplings_needs_no_peak_scan(tmp_path, capsys):
    # the uniform 3-site chain is a PST chain: t = pi / (sqrt(2) J), no scan runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fidelity", "--chain", write_uniform(tmp_path / "pst.json", 3, 1e300)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["time"] == pytest.approx(np.pi / (np.sqrt(2.0) * 1e300), rel=1e-12)
    assert report["best_fidelity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("command", ["fidelity", "sweep"])
def test_subnormal_gap_is_refused_in_one_line(command, tmp_path, capsys):
    # four numpy warnings, then "window time must be finite, got inf", before
    out = tmp_path / "x.out"
    args = [command, "--chain", write_uniform(tmp_path / "sub.json", 2, 1e-310),
            "--out", str(out)]
    if command == "sweep":
        args += ["--j-axis", "0", "--b-axis", "0", "--samples", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: this chain's transfer time pi / gap is beyond the double "
                            "range: its eigenvalue gap is 2e-310\n")
    assert captured.out == "" and not out.exists()
    args[2] = write_uniform(tmp_path / "tiny.json", 2, 1e-300)  # t = 1.57e300 still works
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 0


WEAK_BOND_FILES = {
    # mirror chain joined by two bonds of 1e-12: sweep wrote 0.890945066239 (exit 0); a
    # 40-digit mpmath expm gives 0.78300312394825
    "w7": ([1.088144150911419, 1.501175971082208, 1e-12, 1e-12, 1.501175971082208,
            1.088144150911419], 6, "170.11354350264628"),
    # sweep exited 2 with "singular value 1.0000000111022274 > 1"
    "weak": ([1.5, 1e-8, 1.5], 4, "7"),
}


@pytest.mark.parametrize("name", sorted(WEAK_BOND_FILES))
def test_sweep_across_a_weak_bond_matches_fidelity(name, tmp_path, capsys):
    couplings, window_out, time = WEAK_BOND_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"format_version": 1, "n": len(couplings) + 1,
                                "couplings": couplings, "fields": [0.0] * (len(couplings) + 1)}))
    window = ["--chain", str(path), "--window-in", "1", "--window-out", str(window_out),
              "--time", time]
    assert run(["fidelity", *window]) == 0
    want = json.loads(capsys.readouterr().out)["fidelity_single"]
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *window, "--j-axis", "0", "--b-axis", "0", "--samples", "1",
                "--out", str(out)]) == 0
    mean = float(out.read_text().splitlines()[2].split(",")[2])
    assert mean == pytest.approx(want, abs=1e-12)
    if name == "w7":
        assert want == pytest.approx(0.78300312394825, abs=1e-13)


NON_FINITE_FLAGS = {
    # each ran and exited 0 before: a passed fermion check on a NaN time, a NaN
    # disorder width scored as none, a NaN delta written into the JSON report
    "oracle-t": (["oracle", "--n", "6", "--t", "nan"], "--t", "nan"),
    "sweep-j-axis": (["sweep", "--j-axis", "nan", "--b-axis", "0", "--samples", "3"],
                     "--j-axis", "nan"),
    "optimize-delta": (["optimize", "--delta", "nan", "--restarts", "0", "--samples", "3"],
                       "--delta", "nan"),
    "sweep-axis-stop": (["sweep", "--j-axis", "0:inf:0.1", "--samples", "3"], "--j-axis", "inf"),
    "apollaro-x": (["fidelity", "--model", "apollaro", "--x", "1e999", "--y", "0.7"],
                   "--x", "inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FLAGS))
def test_non_finite_number_flag_is_a_usage_error(case, tmp_path, capsys):
    args, flag, value = NON_FINITE_FLAGS[case]
    out = tmp_path / "x.out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be a finite number, got {value}\n"
    assert captured.out == ""
    assert not out.exists()


def test_sweep_deterministic_across_threads(tmp_path):
    common = ["sweep", "--model", "uniform", "--n", "15", "--window", "1",
              "--j-axis", "0:0.1:0.05", "--b-axis", "0.05",
              "--samples", "40", "--seed", "9"]
    out1 = tmp_path / "a.csv"
    out8 = tmp_path / "b.csv"
    assert run(common + ["--threads", "1", "--out", str(out1)]) == 0
    assert run(common + ["--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_sweep_csv_layout_and_descriptor(tmp_path):
    out = tmp_path / "grid.csv"
    desc = tmp_path / "grid.json"
    assert run(["sweep", "--model", "uniform", "--n", "11", "--window", "1",
                "--j-axis", "0:0.1:0.1", "--b-axis", "0",
                "--samples", "5", "--seed", "4",
                "--out", str(out), "--descriptor", str(desc)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# format=1"
    assert lines[1] == "sigma_J,sigma_B,mean,min,quantile,samples,seed"
    assert len(lines) == 4
    meta = json.loads(desc.read_text())
    assert meta["format_version"] == 1
    assert meta["descriptor"]["samples"] == 5


RANGE_ERRORS = [["--quantile", "1.5"], ["--quantile", "0"], ["--samples", "0"],
                ["--window", "0"], ["--window", "16"]]


@pytest.mark.parametrize("bad", RANGE_ERRORS + [["--threads", "0"], ["--threads", "-3"]],
                         ids=" ".join)
def test_sweep_rejects_argument_ranges_before_sampling(bad, tmp_path, capsys, monkeypatch):
    import spintransfer.montecarlo as montecarlo

    def no_draw(*args):
        raise AssertionError("sampling started before the argument check")

    monkeypatch.setattr(montecarlo, "standard_variates", no_draw)  # every ensemble draw
    out = tmp_path / "x.csv"
    argv = ["sweep", "--model", "uniform", "--n", "11", "--j-axis", "0.1", "--b-axis", "0.1",
            "--samples", "4", "--out", str(out)]
    with pytest.raises(AssertionError, match="sampling started"):  # positive control
        run(argv)
    assert run(argv + bad) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if bad[0] == "--threads":
        assert err == "error: need at least one thread\n"
    assert not out.exists()


@pytest.mark.parametrize("delta", ["0", "0.05"], ids=["deterministic", "quantile"])
@pytest.mark.parametrize("bad", RANGE_ERRORS, ids=" ".join)
def test_optimize_rejects_argument_ranges_before_sampling(bad, delta, tmp_path, capsys,
                                                          monkeypatch):
    import spintransfer.optimize as optimize

    def no_evaluation(*args, **kwargs):
        raise AssertionError("objective evaluated before the argument check")

    monkeypatch.setattr(optimize, "_end_weights", no_evaluation)
    common = ["optimize", "--n", "15", "--delta", delta, "--samples", "4", "--restarts", "0"]
    out = tmp_path / "land.csv"
    for args in (common + bad, common + ["--landscape", "--out", str(out)] + bad):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if bad[0] == "--window":  # Objective checks it before any candidate is scored
            assert err == f"error: window must be in 1..15, got {bad[1]}\n"
    assert not out.exists()


def test_optimize_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["optimize", "--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_sweep_help_says_threads_runs_nothing(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--help"])
    assert exc.value.code == 0
    assert "runs nothing" in " ".join(capsys.readouterr().out.split())


def test_build_with_an_empty_out_path_is_a_usage_error(capsys):
    # it used to exit 0 without writing the chain or reporting an "out" key
    assert run(["build", "--n", "5", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""
    assert run(["fidelity", "--n", "5", "--out", ""]) == 2
    assert capsys.readouterr().err == captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "5", "--samples", "2", "--j-axis", "0", "--b-axis", "0",
     "--out", "s.csv", "--descriptor", ""],
    ["fidelity", "--n", "5", "--encoding-out", "", "--out", "f.json"],
], ids=["sweep_descriptor", "fidelity_encoding_out"])
def test_an_empty_descriptor_or_encoding_path_is_a_usage_error(argv, tmp_path, capsys,
                                                               monkeypatch):
    # both exited 0 and skipped the file; now refused before the CSV or report is written
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_optimize_rejects_a_negative_delta(tmp_path, capsys, monkeypatch):
    import spintransfer.optimize as optimize

    def no_evaluation(*args, **kwargs):
        raise AssertionError("objective evaluated for a negative --delta")

    monkeypatch.setattr(optimize, "_end_weights", no_evaluation)
    out = tmp_path / "x.json"
    assert run(["optimize", "--delta", "-0.1", "--restarts", "0", "--samples", "3",
                "--n", "15", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --delta must be >= 0, got -0.1\n"
    assert captured.out == ""
    assert not out.exists()


def test_sweep_rejects_bad_axis(tmp_path):
    assert run(["sweep", "--model", "uniform", "--n", "11",
                "--j-axis", "0:0.1", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command", [
    ["sweep", "--model", "uniform", "--n", "11", "--j-axis", "0.2:0:0.1", "--b-axis", "0"],
    ["optimize", "--n", "15", "--landscape", "--x-axis", "0.7:0.3:0.05"],
], ids=["sweep", "landscape"])
def test_reversed_axis_is_a_usage_error(command, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(command + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: --") and "below its start" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("spec, count", [("0:1:1e-6", "1000001"), ("0:0.1:1e-300", "1e+299"),
                                         ("0:0.1:5e-324", "inf")], ids=["1e-6", "1e-300", "denormal"])
@pytest.mark.parametrize("command, flag", [
    (["sweep", "--model", "uniform", "--n", "11", "--b-axis", "0"], "--j-axis"),
    (["optimize", "--n", "15", "--landscape", "--y-axis", "0.8"], "--x-axis"),
], ids=["sweep", "landscape"])
def test_axis_with_too_many_points_is_a_usage_error(command, flag, spec, count, tmp_path,
                                                    capsys):
    out = tmp_path / "x.csv"
    assert run(command + [flag, spec, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} has {count} points, more than 1000\n"
    assert captured.out == ""
    assert not out.exists()


def test_axis_point_limit_is_inclusive():
    assert cli._parse_axis("0:0.999:0.001", "--j-axis").size == 1000
    with pytest.raises(ValueError, match="1001 points"):
        cli._parse_axis("0:1:0.001", "--j-axis")


def test_optimize_rejects_negative_restarts(capsys, monkeypatch):
    import spintransfer.optimize as optimize

    def no_evaluation(*args, **kwargs):
        raise AssertionError("objective evaluated for a negative --restarts")

    monkeypatch.setattr(optimize, "_end_weights", no_evaluation)
    assert run(["optimize", "--n", "15", "--restarts", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: restarts must be >= 0, got -2\n"
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    src = Path(spintransfer.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "spintransfer", "build", "--model", "pst",
                           "--n", "5"], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 5


def test_optimize_landscape_single_cell(tmp_path):
    out = tmp_path / "land.csv"
    assert run(["optimize", "--n", "15", "--window", "1", "--landscape",
                "--x-axis", "0.5", "--y-axis", "0.8", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# format=1"
    assert lines[1] == "x,y,value"
    x, y, value = (float(v) for v in lines[2].split(","))
    assert (x, y) == (0.5, 0.8)
    assert 0.5 <= value <= 1.0


@pytest.mark.parametrize("axis", ["--x-axis=1.5", "--x-axis=-0.1:0.1:0.1", "--x-axis=0",
                                  "--y-axis=1.5"])
def test_landscape_axis_outside_the_box_is_a_usage_error(axis, tmp_path, capsys, monkeypatch):
    # the objective folds a point outside the box onto another, which the CSV would misname
    import spintransfer.optimize as optimize

    def no_evaluation(*args, **kwargs):
        raise AssertionError("chain solved for an axis outside the box")

    monkeypatch.setattr(optimize, "_end_weights", no_evaluation)
    out = tmp_path / "land.csv"
    assert run(["optimize", "--n", "15", "--landscape", "--x-axis", "0.5", "--y-axis", "0.7",
                axis, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: landscape ") and "(0, 1.2]" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_optimize_landscape_requires_out(capsys, monkeypatch):
    import spintransfer.cli as cli

    def no_scan(*args, **kwargs):
        raise AssertionError("landscape computed before the missing --out was caught")

    monkeypatch.setattr(cli, "objective_landscape", no_scan)
    assert run(["optimize", "--n", "15", "--landscape",
                "--x-axis", "0.5", "--y-axis", "0.8"]) == 2
    assert "--out" in capsys.readouterr().err


def test_optimize_deterministic_report(tmp_path, capsys):
    args = ["optimize", "--n", "15", "--window", "1", "--delta", "0.05",
            "--samples", "10", "--seed", "3", "--x0", "0.55", "--y0", "0.85",
            "--restarts", "1"]
    assert run(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["inputs"]["metric"] == "quantile"


def test_oracle_pass_and_report(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--model", "uniform", "--n", "8", "--k", "2",
                "--t", "3.7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-8


def test_oracle_k1_is_exact(capsys):
    assert run(["oracle", "--model", "uniform", "--n", "10", "--k", "1",
                "--t", "5.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_deviation"] <= 1e-12


def test_oracle_size_guard_exit_code():
    assert run(["oracle", "--model", "uniform", "--n", "20", "--k", "2",
                "--t", "1.0"]) == 2


def test_oracle_numerical_failure_exit_code(capsys):
    # an impossible tolerance flags the run as a numerical failure (exit 3)
    assert run(["oracle", "--model", "uniform", "--n", "6", "--k", "2",
                "--t", "1.0", "--tolerance", "1e-20"]) == 3


def test_oracle_negative_tolerance_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # no deviation can pass it: refused before the sector is evolved (it exited 3)
    import spintransfer.fermion as fermion

    def no_evolution(*args):
        raise AssertionError("sector evolved before the tolerance check")

    monkeypatch.setattr(fermion, "verify_free_fermion", no_evolution)
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--n", "6", "--k", "2", "--tolerance", "-1",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tolerance must be >= 0, got -1.0\n"
    assert captured.out == ""
    assert not out.exists()


def test_oracle_k0_is_a_usage_error(capsys):
    assert run(["oracle", "--n", "6", "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: need 1 <= k <= n\n"


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def huge(n):
        raise MemoryError(f"Unable to allocate an array for n={n}")

    monkeypatch.setattr(cli, "pst_chain", huge)
    assert run(["build", "--model", "pst", "--n", "99999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: not enough memory: "
                            "Unable to allocate an array for n=99999999999\n")
    assert captured.out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["fidelity", "--model", "hexagonal"])
    assert exc.value.code == 2
