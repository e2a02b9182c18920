import json
import os
import shlex
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


def run_status(capsys, *argv):
    """Like run, but an argparse exit (usage error or --help) yields its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


@pytest.mark.parametrize(
    "a, b",
    [
        ("1,2,0,0", "1,1,0,0|0,0,1,1"),
        ("1,2,0,0|0,0,1,1", "1,1,0,0"),
        ("1,0,0,0|0,2,0,0|0,0,1,0", "1,0,0,0|0,1,0,0|0,0,2,0"),
    ],
    ids=["one-vs-two-rows", "two-vs-one-row", "three-rows-each"],
)
def test_dist_qary_row_counts_must_match(capsys, a, b):
    code, out, err = run(capsys, "dist", "--n", "4", "--q", "3", "--a", a, "--b", b)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "rows" in err


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


_PAIR_FILE = {"n": 6, "k": 2, "s": 2, "q": 0, "d": 3, "words": [[[0, 1], [2, 3]]], "verified_min_distance": None}


@pytest.mark.parametrize(
    "change",
    [
        {"words": 5},
        {"words": [7]},
        {"q": 3, "s": 1, "words": [7]},
        {"words": [[[0, "a"], [2, 3]]]},
        {"verified_min_distance": "x"},
        {"verified_min_distance": 2.5},
        {"n": 6.9},
        {"words": [[[0, 1.7], [2, 3]]]},
        {"q": 3, "s": 1, "words": [[[1, 1.5, 0, 0, 0, 0]]]},
        {"n": "6"},
        {"k": True},
    ],
    ids=[
        "words-number",
        "word-number",
        "qary-word-number",
        "element-string",
        "distance-string",
        "distance-fraction",
        "n-fraction",
        "element-fraction",
        "qary-symbol-fraction",
        "n-string",
        "k-bool",
    ],
)
def test_malformed_code_file_is_refused(tmp_path, capsys, change):
    text = json.dumps({**_PAIR_FILE, **change})
    with pytest.raises(ekcodes.ParameterError, match="^malformed code file: "):
        ekcodes.code_from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed code file: ") and "Traceback" not in err


def test_integral_floats_in_a_code_file_load_as_ints():
    text = json.dumps({**_PAIR_FILE, "n": 6.0, "words": [[[0, 1.0], [2, 3]]], "verified_min_distance": 3.0})
    assert ekcodes.code_from_json(text) == ekcodes.code_from_json(json.dumps({**_PAIR_FILE, "verified_min_distance": 3}))
    qary = {**_PAIR_FILE, "s": 1, "q": 3, "d": 1}
    text = json.dumps({**qary, "words": [[[1.0, 0, 2.0, 0, 0, 0]]]})
    code = ekcodes.code_from_json(text)
    assert code == ekcodes.code_from_json(json.dumps({**qary, "words": [[[1, 0, 2, 0, 0, 0]]]}))
    assert all(type(x) is int for word in code.words for x in word.symbols)


_DESIGN_FILE = {"v": 6, "t": 2, "blocks": [[0, 1, 3]]}


@pytest.mark.parametrize(
    "change",
    [{"v": 6.9}, {"blocks": [[0, 1.7, 3]]}, {"v": "6"}, {"t": True}, {"blocks": [[0, "1", 3]]}],
    ids=["v-fraction", "point-fraction", "v-string", "t-bool", "point-string"],
)
def test_malformed_design_file_is_refused(tmp_path, capsys, change):
    text = json.dumps({**_DESIGN_FILE, **change})
    with pytest.raises(ekcodes.ParameterError, match="^malformed design file: "):
        ekcodes.design_from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "design", "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed design file: ") and "Traceback" not in err


def test_integral_floats_in_a_design_file_load_as_ints():
    design = ekcodes.design_from_json(json.dumps({"v": 6.0, "t": 2.0, "blocks": [[0, 1.0, 3]]}))
    assert design == ekcodes.design_from_json(json.dumps(_DESIGN_FILE))
    assert all(type(x) is int for x in (design.v, design.t, *design.blocks[0]))


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


def test_compose_verifies_every_base(tmp_path, capsys):
    design_path = tmp_path / "p13.json"
    code, _, _ = run(capsys, "design", "develop", "--set", "0,1,3,9", "--m", "13", "--out", str(design_path))
    assert code == 0
    forged = tmp_path / "forged4.json"  # two words at distance 2, filed as verified at distance 3
    forged.write_text(
        '{"n":4,"k":2,"s":2,"q":0,"d":3,"words":[[[0,1],[2,3]],[[0,2],[1,3]]],"verified_min_distance":3}'
    )
    code, out, err = run(
        capsys, "compose", "--design", str(design_path), "--base", str(forged), "--k", "2", "--d", "3"
    )
    assert code == 1 and out == ""
    assert "base code on 4 points has verified distance 2 < 3" in err


def test_compose_refuses_a_repeated_base_size(tmp_path, capsys):
    design_path = tmp_path / "sqs8.json"
    run(capsys, "design", "sqs", "--r", "3", "--out", str(design_path))
    base = tmp_path / "base4.json"
    run(capsys, "greedy", "--n", "4", "--k", "2", "--d", "2", "--out", str(base))
    bases = ["--base", str(base), "--base", str(base)]
    code, out, err = run(capsys, "compose", "--design", str(design_path), *bases, "--k", "2", "--d", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "4 points" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--n", "8", "--k", "2", "--d", "3", "--node-budget", "-1"),
        ("exact", "--n", "8", "--k", "2", "--d", "3", "--budget-seconds", "-1"),
        ("antagonistic", "search", "--k", "3", "--m", "19", "--node-budget", "-1"),
        ("antagonistic", "search", "--k", "3", "--m", "19", "--budget-seconds", "-1"),
    ],
    ids=["exact nodes", "exact seconds", "search nodes", "search seconds"],
)
def test_negative_budgets_exit_invalid(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget must be nonnegative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("greedy", "--n", "-1", "--k", "2", "--d", "3"), "n=-1"),
        (("greedy", "--n", "-1", "--k", "2", "--d", "3", "--s", "3"), "n=-1"),
        (("greedy", "--n", "-1", "--k", "2", "--d", "3", "--q", "3"), "n=-1"),
        (("design", "develop", "--m", "0", "--set", "1,2"), "m=0"),
        (("design", "develop", "--m", "-7", "--set", "1,2"), "m=-7"),
    ],
    ids=["greedy pairs n=-1", "greedy s=3 n=-1", "greedy q=3 n=-1", "develop m=0", "develop m=-7"],
)
def test_out_of_domain_sizes_exit_invalid(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_antagonistic_search_refuses_an_empty_limit(capsys, limit):
    code, out, err = run(capsys, "antagonistic", "search", "--k", "3", "--m", "19", "--limit", limit)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "limit must be >= 1" in err
    assert "Traceback" not in err


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
    code, out, err = run(capsys, "bound", "--n", "9", "--k", "3", "--t", "2", "--d", "3")
    assert code == 1 and out == "" and "--t" in err


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


# Every command line of the README, in order, with its --format json stdout, stderr and exit code.
# The ratio line runs n=50,100 only: the n=200 greedy is the acceptance test's (C11) to run.
README_RUNS = [
    ('ekcodes dist --n 9 --k 2 --a "1,8|2,3" --b "2,0|3,4"', '{"distance":3}', "", 0),
    (
        "ekcodes antagonistic orbit --m 9 --s 1,8 --t 2,3 --out code9.json",
        '{"n":9,"k":2,"claimed_d":3,"size":9}',
        "",
        0,
    ),
    (
        "ekcodes verify code9.json",
        '{"n":9,"k":2,"s":2,"q":0,"claimed_d":3,"size":9,"min_distance":3,"meets_claim":true}',
        "",
        0,
    ),
    (
        'ekcodes multi-orbit --m 17 --d 3 --generator "0,7|2,6" --generator "0,11|7,8"',
        '{"n":17,"k":2,"claimed_d":3,"size":34,"min_distance":3,"meets_claim":true}',
        "",
        0,
    ),
    (
        "ekcodes bound --n 73 --k 2 --d 3",
        '{"exact":"657","floor":657,"kind":"upper-bound","realizing_split":"1,1"}',
        "",
        0,
    ),
    (
        "ekcodes bound --n 9 --k 3 --t 2",
        '{"exact":"12","floor":12,"kind":"upper-bound","realizing_split":"none"}',
        "",
        0,
    ),
    ("ekcodes known --n 8 --k 2 --d 2", '{"known":true,"exact":"42","floor":42,"kind":"exact"}', "", 0),
    (
        "ekcodes antagonistic search --k 3 --m 19",
        '[{"m":19,"S":"0,1,4","T":"3,8,14"},{"m":19,"S":"0,1,4","T":"3,13,15"},'
        '{"m":19,"S":"0,1,5","T":"2,13,15"},{"m":19,"S":"0,1,5","T":"8,15,18"},'
        '{"m":19,"S":"0,1,6","T":"4,7,11"},{"m":19,"S":"0,1,6","T":"7,15,17"},'
        '{"m":19,"S":"0,1,8","T":"2,11,15"},{"m":19,"S":"0,1,8","T":"13,16,18"},'
        '{"m":19,"S":"0,2,5","T":"4,8,14"},{"m":19,"S":"0,2,8","T":"6,9,16"},'
        '{"m":19,"S":"0,2,9","T":"7,13,18"},{"m":19,"S":"0,2,10","T":"4,7,11"},'
        '{"found":12,"exhausted":true,"nodes":5167,"frontier":0}]',
        "",
        0,
    ),
    (
        "ekcodes antagonistic search --k 4 --m 33 --node-budget 200000 --checkpoint frontier.txt",
        '[{"found":0,"exhausted":false,"nodes":200000,"frontier":62}]',
        "",
        3,
    ),
    (
        "ekcodes design pds --q 8 --develop --out s73.json",
        '{"q":8,"found":true,"set":"0,1,3,7,15,31,36,54,63","m":73,"blocks":73}',
        "",
        0,
    ),
    (
        "ekcodes antagonistic orbit --m 9 --s 1,8 --t 2,3 --out base9.json",
        '{"n":9,"k":2,"claimed_d":3,"size":9}',
        "",
        0,
    ),
    (
        "ekcodes compose --design s73.json --base base9.json --k 2 --d 3 --out c73.json",
        '{"n":73,"k":2,"claimed_d":3,"size":657,"min_distance":3,"meets_claim":true}',
        "",
        0,
    ),
    (
        "ekcodes greedy --n 30 --k 2 --d 3 --seed 1",
        '{"n":30,"k":2,"d":3,"s":2,"q":0,"size":93}',
        "seed: 1\n",
        0,
    ),
    (
        "ekcodes exact --n 9 --k 2 --d 3",
        '{"n":9,"k":2,"d":3,"best_size":9,"optimal":true,"nodes":24}',
        "",
        0,
    ),
    (
        "ekcodes ratio --k 2 --d 3 --n-list 50,100 --seed 1 --format csv",
        '[{"n":50,"greedy_size":279,"upper_bound_floor":306,"ratio_to_bound":0.911764706,'
        '"normalized_ratio":0.1116,"limit_constant":0.125},'
        '{"n":100,"greedy_size":1167,"upper_bound_floor":1237,"ratio_to_bound":0.943411479,'
        '"normalized_ratio":0.1167,"limit_constant":0.125}]',
        "seed: 1\n",
        0,
    ),
]


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = [line.split("#")[0].strip() for line in readme.splitlines() if line.startswith("ekcodes ")]
    assert [line.replace("50,100,200", "50,100") for line in documented] == [run[0] for run in README_RUNS]
    monkeypatch.chdir(tmp_path)  # the lines write and read files in the working directory
    for line, stdout, stderr, status in README_RUNS:
        code, out, err = run(capsys, *shlex.split(line)[1:], "--format", "json")
        assert (code, out, err) == (status, stdout + "\n", stderr), line


COMMANDS = [
    (),
    ("dist",),
    ("verify",),
    ("bound",),
    ("known",),
    ("antagonistic",),
    ("antagonistic", "check"),
    ("antagonistic", "search"),
    ("antagonistic", "orbit"),
    ("multi-orbit",),
    ("design",),
    *(("design", action) for action in ("affine", "sqs", "pds", "develop", "greedy-pack", "verify")),
    ("compose",),
    ("greedy",),
    ("exact",),
    ("ratio",),
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(c) or "ekcodes")
def test_help_exits_zero(capsys, command):
    code, out, _ = run_status(capsys, *command, "--help")
    assert code == 0 and out.startswith("usage: ekcodes")


# Each action with all its required flags; dropping any one of them must exit 1 and name it.
FULL_ACTIONS = [
    ("antagonistic", "check", "--m", "9", "--s", "1,8", "--t", "2,3"),
    ("antagonistic", "orbit", "--m", "9", "--s", "1,8", "--t", "2,3"),
    ("antagonistic", "search", "--k", "2", "--m", "9"),
    ("design", "affine", "--p", "3"),
    ("design", "sqs", "--r", "3"),
    ("design", "pds", "--q", "2"),
    ("design", "develop", "--set", "1,2,4", "--m", "7"),
    ("design", "greedy-pack", "--v", "9", "--p", "3", "--t", "2"),
]
MISSING_FLAG = [
    (argv[:i] + argv[i + 2 :], argv[i]) for argv in FULL_ACTIONS for i in range(2, len(argv), 2)
] + [(("verify",), "file"), (("design", "verify"), "file")]


@pytest.mark.parametrize(
    "argv, flag", MISSING_FLAG, ids=[f"{' '.join(argv[:2])} without {flag}" for argv, flag in MISSING_FLAG]
)
def test_missing_required_flag_exits_one(capsys, argv, flag):
    code, out, err = run_status(capsys, *argv)
    assert code == 1 and out == ""
    assert flag in err
