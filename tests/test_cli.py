import json
import os
import subprocess
import sys
import threading

import pytest

from refdyn.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_reproduce_general(capsys):
    code, obj = run_json(capsys, "reproduce", "general", "--n", "5")
    assert code == 0
    assert obj["outputs"]["degree_tuple"] == ["1", "32", "32", "32", "1"]
    assert obj["certificates"]["log_concave"]
    assert obj["certificates"]["palindromic"]
    assert obj["certificates"]["orbit_avoidance_clean"]


@pytest.mark.parametrize("n,mid", [(1, "1"), (2, "1"), (3, "8"), (8, "256")])
def test_reproduce_general_values(capsys, n, mid):
    code, obj = run_json(capsys, "reproduce", "general", "--n", str(n))
    assert code == 0
    assert obj["outputs"]["degree_tuple"] == ["1", mid, mid, mid, "1"]


def test_reproduce_conic_line(capsys):
    code, obj = run_json(capsys, "reproduce", "conic-line")
    assert code == 0
    value = obj["outputs"]["value"]
    assert value["defining_poly"] == "x^2 - 5x - 2"
    lo, hi = value["decimal_enclosure"]
    assert float(lo) <= 5.372281323269014 <= float(hi)
    assert obj["certificates"]["growth_hypotheses"] == {
        "positive": True,
        "simple": True,
        "strictly_dominant": True,
        "v0_sees_dominant_eigenspace": True,
        "eigenvector_sees_first_coordinate": True,
    }
    assert obj["certificates"]["ratio_converges"]
    assert obj["outputs"]["degree_sequence"] == [1, 6, 36, 196, 1056, 5676]


def test_reproduce_triangle(capsys):
    code, obj = run_json(capsys, "reproduce", "triangle")
    assert code == 0
    value = obj["outputs"]["value"]
    assert value["defining_poly"] == "x^2 - 4x - 1"
    lo, hi = value["decimal_enclosure"]
    assert float(lo) <= 4.23606797749979 <= float(hi)
    assert obj["certificates"]["minimal_pairs_match"]
    assert obj["certificates"]["series_cross_check"]
    assert obj["certificates"]["block_ratio_converges"]


def test_reproduce_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "reproduce", "conic-line")
    _, second = run_cli(capsys, "reproduce", "conic-line")
    assert first == second


def test_reproduce_general_requires_n(capsys):
    assert main(["reproduce", "general"]) == 2
    assert "requires --n" in capsys.readouterr().err


def exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        "elliptic check",
        "germ pairs --format csv",
        "germ evolve --order 1",
        "billiard check --seed-range 5..3",
        "billiard check --seed 7 --precision -1",
        "reproduce triangle --precision -1",
        "billiard check --seed 0 --horizon 0",
        "elliptic check --n 2",
        "elliptic check --n 4 --horizon 500",
        "reproduce general --n 70 --horizon 500",
        "reproduce general --n 7143",
        "billiard orbit --seed 77 --start=5/1 --word ppqqrr",
        "billiard orbit --seed 3 --start 1:1:1:1 --word rqp",
    ],
)
def test_bad_input_exits_2(capsys, argv):
    assert exit_code(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()
    if "1:1:1:1" in argv:
        # a start off the cubic, refused by the first reflection
        assert "both points must lie on the hypersurface" in captured.err


@pytest.mark.parametrize(
    "case",
    ["missing matrix file", "no matrices", "start without v", "start not an object",
     "start with a fraction", "unwritable --out"],
)
def test_bad_files_and_objects_exit_2(capsys, tmp_path, case):
    good = tmp_path / "system.json"
    good.write_text('{"period": 1, "matrices": [[[1, 1], [1, 0]]]}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"period": 1}')
    argv = {
        "missing matrix file": f"transition growth --matrix-file {tmp_path / 'absent.json'}"
        " --start {\"v\":[1,1]}",
        "no matrices": f"transition growth --matrix-file {bad} --start {{\"v\":[1,1]}}",
        "start without v": f"transition growth --matrix-file {good} --start {{}}",
        "start not an object": f"transition growth --matrix-file {good} --start [1,2]",
        "start with a fraction": f"transition growth --matrix-file {good} --start {{\"v\":[1.5,1]}}",
        "unwritable --out": f"reproduce general --n 3 --out {tmp_path / 'absent' / 'x'}",
    }[case]
    assert exit_code(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_transition_growth_reads_a_matrix_file(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text('{"period": 1, "matrices": [[[1, 1], [1, 0]]]}')
    out = tmp_path / "report.json"
    argv = ["transition", "growth", "--matrix-file", str(path), "--start", '{"v":[1,1]}',
            "--steps", "3", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert [row[2] for row in json.loads(printed)["outputs"]["rows"]] == [1, 2, 3, 5]


def test_reproduce_general_at_the_largest_n_prints_a_report(capsys):
    assert main(["reproduce", "general", "--n", "7142"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["n"] == 7142


@pytest.mark.parametrize("n", [68, 70, 80])
def test_reproduce_general_even_n_avoidance_is_proved(capsys, n):
    code, obj = run_json(capsys, "reproduce", "general", "--n", str(n))
    assert code == 0
    assert obj["certificates"]["orbit_avoidance_clean"] is True


def test_undecided_arithmetic_exits_2(capsys, monkeypatch):
    def undecided(t):
        raise ArithmeticError("log-concavity comparison undecided at maximum refinement")

    monkeypatch.setattr("refdyn.transitions.check_log_concavity", undecided)
    assert main(["reproduce", "general", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "undecided" in captured.err


def test_germ_evolve_csv_cancellation_is_a_failed_certificate(capsys):
    code, out = run_cli(
        capsys, "germ", "evolve", "--seed", "95", "--order", "32", "--format", "csv"
    )
    assert code == 1
    assert out == "step,phase,d0,d1,d2,d3,d4,d5,ratio\n"


def test_module_errors_become_clean_exit(capsys):
    code = main(["germ", "evolve", "--steps", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "steps must be at least 1" in captured.err


def test_billiard_build_and_out_file(capsys, tmp_path):
    out = tmp_path / "cfg.json"
    code, obj = run_json(capsys, "billiard", "build", "--seed", "7", "--out", str(out))
    assert code == 0
    assert obj["outputs"]["configuration"]["seed"] == 7
    on_disk = json.loads(out.read_text())
    assert on_disk == obj


def test_billiard_orbit_csv(capsys):
    code, out = run_cli(
        capsys,
        "billiard",
        "orbit",
        "--seed",
        "7",
        "--start",
        "5/1",
        "--word",
        "rqprqp",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,locus,x0,x1,x2,x3"
    assert len(lines) == 8  # header + start + six reflections
    loci = [line.split(",")[1] for line in lines[1:]]
    assert loci == ["L", "C", "C", "C", "L", "L", "L"]


@pytest.mark.parametrize("start", ["-3/2", "-3:2:0:0"])
def test_billiard_orbit_negative_start_in_either_spelling(capsys, start):
    argv = ["billiard", "orbit", "--seed", "7", "--word", "pqr"]
    joined = run_cli(capsys, *argv, f"--start={start}")
    two_words = run_cli(capsys, *argv, "--start", start)
    assert joined[0] == 0
    assert two_words == joined
    assert json.loads(joined[1])["inputs"]["start"] == start


def test_billiard_check_seed_search(capsys):
    code, obj = run_json(
        capsys, "billiard", "check", "--seed-range", "0..30", "--horizon", "300"
    )
    assert code == 0
    assert obj["certificates"]["passed"]
    assert obj["certificates"]["k0_multiples_of_3"]
    assert obj["outputs"]["check"]["status"] == "success"


def test_billiard_check_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("REFDYN_THREADS", "2")
    code, obj = run_json(
        capsys, "billiard", "check", "--seed-range", "0..10", "--horizon", "300"
    )
    assert code == 0 and obj["certificates"]["passed"]


@pytest.mark.parametrize("seed_range", ["0..20", "2..20"])
def test_billiard_check_runs_no_speculative_seed(capsys, monkeypatch, seed_range):
    from refdyn import billiards

    calls = []
    check = billiards.check_configuration

    def counting(*args, **kwargs):
        calls.append(args[0].seed)
        return check(*args, **kwargs)

    monkeypatch.setattr(billiards, "check_configuration", counting)
    code, obj = run_json(capsys, "billiard", "check", "--seed-range", seed_range)
    assert code == 0
    assert len(calls) == obj["outputs"]["attempts"]
    assert calls[-1] == obj["outputs"]["seed"]


def test_billiard_check_single_worker_stays_in_the_calling_thread(capsys, monkeypatch):
    from refdyn import billiards

    threads = set()
    check = billiards.check_configuration

    def recording(*args, **kwargs):
        threads.add(threading.current_thread())
        return check(*args, **kwargs)

    monkeypatch.delenv("REFDYN_THREADS", raising=False)
    monkeypatch.setattr(billiards, "check_configuration", recording)
    code, obj = run_json(capsys, "billiard", "check", "--seed-range", "2..9")
    assert code == 0 and obj["outputs"]["attempts"] == 2
    assert threads == {threading.current_thread()}


def test_billiard_check_failure_exit_code(capsys):
    # horizon 1 cannot reach a safe point: nonzero exit, report retained
    code, obj = run_json(
        capsys, "billiard", "check", "--seed", "7", "--horizon", "1"
    )
    assert code == 1
    assert obj["certificates"]["passed"] is False


def test_germ_evolve_csv(capsys):
    code, out = run_cli(capsys, "germ", "evolve", "--steps", "9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,phase,d0,d1,d2,d3,d4,d5,ratio"
    assert lines[1].startswith("0,1,2,1,1,1,1,0")
    assert lines[3].startswith("2,0,3,2,2,0,1,1")


def test_germ_pairs(capsys):
    code, obj = run_json(capsys, "germ", "pairs", "--steps", "30")
    assert code == 0
    assert obj["certificates"]["all_match"]


def test_elliptic_check(capsys):
    code, obj = run_json(capsys, "elliptic", "check", "--n", "4")
    assert code == 0
    assert obj["inputs"] == {"n": 4}
    assert obj["certificates"] == {"no_hits": True}
    assert obj["outputs"]["report"] == {
        "N": 4, "period": 8, "translation": [-2, 2, -2, 2], "hits": []
    }


def test_transition_growth_csv(capsys):
    code, out = run_cli(
        capsys, "transition", "growth", "--system", "conic-line", "--steps", "20",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,phase,v0,v1,v2,ratio"
    last_ratio = lines[-1].split(",")[-1]
    num, _, den = last_ratio.partition("/")
    assert abs(int(num) / int(den or "1") - 5.372281323269) < 1e-6


def test_transition_growth_matrix_file(capsys, tmp_path):
    from refdyn.transitions import triangle_system

    path = tmp_path / "system.json"
    path.write_text(triangle_system().to_json())
    code, obj = run_json(
        capsys,
        "transition",
        "growth",
        "--matrix-file",
        str(path),
        "--start",
        '{"phase": 0, "v": [1, 0, 0, 0, 0, 0]}',
        "--steps",
        "6",
    )
    assert code == 0
    assert obj["outputs"]["rows"][3][2:8] == [3, 2, 2, 0, 1, 1]


def test_console_entry_point():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "refdyn.cli", "reproduce", "general", "--n", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["outputs"]["degree_tuple"] == ["1", "8", "8", "8", "1"]
    assert "elapsed" in proc.stderr
