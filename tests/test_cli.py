import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ekcodes
from ekcodes import load_code, load_design
from ekcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_pair(capsys):
    code, out, _ = run(capsys, "dist", "--n", "9", "--k", "2", "--a", "1,8|2,3", "--b", "2,0|3,4")
    assert code == 0
    assert out.strip() == "distance: 3"


def test_dist_tuple_and_qary(capsys):
    code, out, _ = run(capsys, "dist", "--n", "4", "--k", "1", "--a", "0|1|2", "--b", "1|2|3")
    assert code == 0 and out.strip() == "distance: 1"
    code, out, _ = run(capsys, "dist", "--n", "3", "--q", "3", "--a", "1,0,2", "--b", "1,2,0")
    assert code == 0 and out.strip() == "distance: 2"
    code, out, _ = run(
        capsys, "dist", "--n", "4", "--q", "3", "--a", "1,2,0,0|0,0,1,1", "--b", "1,1,0,0|0,0,1,1"
    )
    assert code == 0 and out.strip() == "distance: 1"


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "--n", "73", "--k", "2", "--d", "3")
    assert code == 0
    assert "exact: 657" in out and "floor: 657" in out
    code, out, _ = run(capsys, "bound", "--n", "9", "--k", "3", "--t", "2")
    assert code == 0 and "floor: 12" in out
    code, out, _ = run(capsys, "bound", "--n", "9", "--k", "2", "--d", "3", "--u", "0", "--v", "2")
    assert code == 0 and "exact: 18" in out


def test_known_command(capsys):
    code, out, _ = run(capsys, "known", "--n", "9", "--k", "2", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"known": True, "exact": "9", "floor": 9, "kind": "exact"}
    code, out, _ = run(capsys, "known", "--n", "10", "--k", "2", "--d", "3", "--format", "json")
    assert code == 0 and json.loads(out) == {"known": False}


def test_orbit_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "code9.json"
    code, out, _ = run(
        capsys, "antagonistic", "orbit", "--m", "9", "--s", "1,8", "--t", "2,3", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "min_distance: 3" in out and "meets_claim: true" in out
    loaded = load_code(path)
    assert len(loaded) == 9


def test_verify_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "claim.json"
    run(capsys, "antagonistic", "orbit", "--m", "9", "--s", "1,8", "--t", "2,3", "--out", str(path))
    data = json.loads(path.read_text())
    data["d"] = 4  # claim more than the construction delivers
    path.write_text(json.dumps(data, separators=(",", ":")))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "meets_claim: false" in out


def test_antagonistic_check(capsys):
    code, out, _ = run(capsys, "antagonistic", "check", "--m", "9", "--s", "1,8", "--t", "2,3")
    assert code == 0 and "antagonistic: true" in out
    code, out, _ = run(capsys, "antagonistic", "check", "--m", "9", "--s", "1,2", "--t", "3,4")
    assert code == 2 and "condition: i" in out


def test_antagonistic_search_cli(capsys):
    code, out, _ = run(capsys, "antagonistic", "search", "--k", "2", "--m", "9")
    assert code == 0
    assert "exhausted: true" in out
    code, out, _ = run(capsys, "antagonistic", "search", "--k", "2", "--m", "8")
    assert code == 3  # nothing exists mod 8


def test_multi_orbit_cli(tmp_path, capsys):
    path = tmp_path / "c17.json"
    code, out, _ = run(
        capsys,
        "multi-orbit",
        "--m", "17", "--d", "3",
        "--generator", "0,7|2,6",
        "--generator", "0,11|7,8",
        "--out", str(path),
    )
    assert code == 0
    assert "size: 34" in out and "min_distance: 3" in out
    assert len(load_code(path)) == 34


def test_design_pipeline_and_compose(tmp_path, capsys):
    design_path = tmp_path / "sqs8.json"
    code, out, _ = run(capsys, "design", "sqs", "--r", "3", "--out", str(design_path))
    assert code == 0
    assert load_design(design_path).v == 8

    code, out, _ = run(capsys, "design", "verify", str(design_path))
    assert code == 0 and "label: design" in out

    base_path = tmp_path / "base4.json"
    code, out, _ = run(
        capsys, "greedy", "--n", "4", "--k", "2", "--d", "2", "--seed", "0", "--out", str(base_path)
    )
    assert code == 0

    code, out, _ = run(
        capsys,
        "compose",
        "--design", str(design_path),
        "--base", str(base_path),
        "--k", "2", "--d", "2",
        "--out", str(tmp_path / "c822.json"),
    )
    assert code == 0
    assert "size: 42" in out and "meets_claim: true" in out


def test_design_pds_and_develop(tmp_path, capsys):
    code, out, _ = run(capsys, "design", "pds", "--q", "2")
    assert code == 0 and "found: true" in out
    code, out, _ = run(capsys, "design", "pds", "--q", "6")
    assert code == 3
    path = tmp_path / "fano.json"
    code, out, _ = run(capsys, "design", "develop", "--set", "1,2,4", "--m", "7", "--out", str(path))
    assert code == 0
    assert load_design(path).v == 7


def test_design_greedy_pack_seed_echo(capsys):
    code, out, _ = run(capsys, "design", "greedy-pack", "--v", "9", "--p", "3", "--t", "2", "--seed", "5")
    assert code == 0
    assert "seed: 5" in out


def test_exact_cli(capsys):
    code, out, _ = run(capsys, "exact", "--n", "6", "--k", "2", "--d", "3")
    assert code == 0
    assert "best_size: 2" in out and "optimal: true" in out
    code, out, _ = run(capsys, "exact", "--n", "8", "--k", "2", "--d", "3", "--node-budget", "3")
    assert code == 3
    assert "optimal: false" in out


def test_greedy_cli_seed_echo_and_determinism(capsys):
    code, first, _ = run(capsys, "greedy", "--n", "9", "--k", "2", "--d", "3", "--seed", "1", "--format", "json")
    assert code == 0
    code, second, err = run(capsys, "greedy", "--n", "9", "--k", "2", "--d", "3", "--seed", "1", "--format", "json")
    assert first == second  # byte-identical
    assert "seed: 1" in err


def test_ratio_cli_csv(capsys):
    code, out, err = run(
        capsys, "ratio", "--k", "2", "--d", "3", "--n-list", "9,12", "--seed", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,greedy_size,upper_bound_floor,ratio_to_bound,normalized_ratio,limit_constant"
    assert len(lines) == 3
    assert lines[1].startswith("9,")
    assert "seed: 1" in err
    code, again, _ = run(
        capsys, "ratio", "--k", "2", "--d", "3", "--n-list", "9,12", "--seed", "1", "--format", "csv"
    )
    assert again == out


def test_exact_output_round_trips_into_verify(tmp_path, capsys):
    path = tmp_path / "best.json"
    code, out, _ = run(
        capsys, "exact", "--n", "7", "--k", "2", "--d", "3", "--out", str(path)
    )
    assert code == 0 and "best_size: 4" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "meets_claim: true" in out


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "--n", "9", "--k", "2", "--a", "1|2", "--b", "1|2", "--bogus"])
    assert exc.value.code == 1


def test_invalid_parameters_exit_one(capsys):
    code, _, err = run(capsys, "bound", "--n", "4", "--k", "3", "--d", "2")
    assert code == 1
    assert "error" in err


def test_import_and_dist_leave_scipy_unloaded():
    script = (
        "import sys\n"
        "import ekcodes\n"
        "assert 'scipy' not in sys.modules, 'import ekcodes loaded scipy'\n"
        "from ekcodes.cli import main\n"
        "main(['dist', '--n', '9', '--k', '2', '--a', '1,8|2,3', '--b', '2,0|3,4'])\n"
        "assert 'scipy' not in sys.modules, 'ekcodes dist loaded scipy'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ekcodes.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "distance: 3"
