"""Command line entry points, exercised in process."""

from __future__ import annotations

import pytest

from nmrqc.cli import main

CYTOSINE_CFG = """\
SPIN H5 1H 763
SPIN H6 1H 0
J H5 H6 7.2
CENTER
"""

DEUTSCH_F01_QC = """\
X q1
H q0
H q1
ORACLE f01 q0 q1
H q0
H q1
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "cytosine.cfg").write_text(CYTOSINE_CFG)
    (tmp_path / "deutsch_f01.qc").write_text(DEUTSCH_F01_QC)
    return tmp_path


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_reads_out_the_answer_spin(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--system", str(workdir / "cytosine.cfg"),
        "--prep", "cory",
        "--circuit", str(workdir / "deutsch_f01.qc"),
        "--observe", "q0",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bits 1"
    assert lines[1] == "spin,partner_bits,freq_hz,amp_re,amp_im"
    assert lines[2] == "H5,1,385.1,-0.5,0"


def test_run_is_deterministic(workdir, capsys):
    args = (
        "run",
        "--system", str(workdir / "cytosine.cfg"),
        "--prep", "cory",
        "--circuit", str(workdir / "deutsch_f01.qc"),
    )
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_compile_prints_program_and_verdict(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        "compile",
        "--system", str(workdir / "cytosine.cfg"),
        "--circuit", str(workdir / "deutsch_f01.qc"),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("PULSE ")
    assert any(line.startswith("FRAME ") for line in lines)
    assert lines[-1].startswith("verification: max deviation ")
    assert lines[-1].endswith("PASS")


def test_prep_reports_certificate(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "prep", "--system", str(workdir / "cytosine.cfg"), "--method", "cory"
    )
    assert code == 0
    assert "deviation +0.5*Ez +0.5*zE +0.5*zz" in out
    assert "epsilon 1\n" in out
    assert "background -0.25" in out
    assert out.strip().endswith("PASS")


def test_grover_table(capsys):
    code, out, _ = run_cli(
        capsys, "grover", "--n", "2", "--marked", "01", "--iterations", "1"
    )
    assert code == 0
    assert out == "iterations 1\n00 0\n01 1\n10 0\n11 0\nbest 01\n"


def test_deutsch_answer(capsys):
    code, out, _ = run_cli(capsys, "deutsch", "--f", "10", "--realization", "cytosine")
    assert code == 0
    assert out.startswith("answer 1\n")


def test_dj_balanced(capsys):
    code, out, _ = run_cli(capsys, "dj", "--table", "01101001")
    assert code == 0
    assert "result balanced" in out
    assert "oracle_calls 1" in out


def test_dj_promise_violation_exits_three(capsys):
    code, _, err = run_cli(capsys, "dj", "--table", "0111")
    assert code == 3
    assert err


def test_separability_certificate(capsys):
    code, out, _ = run_cli(capsys, "separability", "--epsilon", "0.1111", "--n", "2")
    assert code == 0
    assert "certificate PASS" in out

    code, out, _ = run_cli(capsys, "separability", "--epsilon", "0.5", "--n", "2")
    assert code == 3
    assert "certificate FAIL" in out


def test_spectrum_csv_output(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--system", str(workdir / "cytosine.cfg"), "--prep", "cory"
    )
    assert code == 0
    assert out.startswith("spin,partner_bits,freq_hz,amp_re,amp_im\n")


def test_tomography_report(workdir, capsys):
    code, out, _ = run_cli(
        capsys, "tomography", "--system", str(workdir / "cytosine.cfg"), "--prep", "cory"
    )
    assert code == 0
    assert "experiments 9" in out
    assert "zz 0.5" in out


def test_missing_file_is_a_data_error(capsys):
    code, _, err = run_cli(capsys, "prep", "--system", "/nonexistent.cfg", "--method", "cory")
    assert code == 2
    assert err


def test_bad_system_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("SPIN a 1H zero\n")
    code, _, err = run_cli(capsys, "prep", "--system", str(bad), "--method", "cory")
    assert code == 2
    assert "line 1" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_garbage_iterations_is_a_data_error(capsys):
    code, _, err = run_cli(
        capsys, "grover", "--n", "2", "--marked", "01", "--iterations", "soon"
    )
    assert code == 2
    assert err


def test_non_finite_system_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text("SPIN a 1H 0\nSPIN b 1H nan\nJ a b 7\n")
    code, _, err = run_cli(capsys, "prep", "--system", str(bad), "--method", "cory")
    assert code == 2
    assert "line 2" in err and "not finite" in err


def test_grover_above_twenty_qubits_is_a_data_error(capsys):
    # The size check runs before any state vector is allocated.
    code, _, err = run_cli(capsys, "grover", "--n", "30", "--marked", "1" * 30)
    assert code == 2
    assert "20" in err


def test_negative_delay_pulse_file_is_a_data_error(workdir, capsys):
    pulses = workdir / "back.pp"
    pulses.write_text("DELAY t=-1\n")
    code, _, err = run_cli(
        capsys,
        "spectrum",
        "--system", str(workdir / "cytosine.cfg"),
        "--prep", "cory",
        "--pulses", str(pulses),
    )
    assert code == 2
    assert "negative" in err


def test_run_checks_only_observed_partners(tmp_path, capsys):
    # Spin q0's only partner is q1, which is not observed; q2's neither.
    (tmp_path / "chain.cfg").write_text(
        "SPIN a 1H -100\nSPIN b 1H 0\nSPIN c 1H 100\nJ a b 50\nJ b c 50\n")
    (tmp_path / "x1.qc").write_text("X q1\n")
    args = ["run", "--system", str(tmp_path / "chain.cfg"), "--prep", "exhaustive",
            "--circuit", str(tmp_path / "x1.qc")]
    code, out, err = run_cli(capsys, *args, "--observe", "q0,q2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "bits 00"
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == "bits 010"
