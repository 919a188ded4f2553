import json

import pytest

from ggpart.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mark_fixture_grid(capsys):
    code, out, _ = run(capsys, "mark", "--fixture", "m6")
    assert code == 0
    assert out.rstrip("\n") == "      4     8\n   2     6     10\n1     4     8"


def test_mark_json_and_sorting_warning(capsys):
    code, out, err = run(capsys, "mark", "--parts", "2,6,4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"]["1"] == [6, 4, 2] or data["rows"]  # canonical rows present
    assert "sorting" in err


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--fixture", "pi1", "-k", "4", "-r", "3", "-p", "6", "-t", "5")
    assert code == 0
    data = json.loads(out)
    assert data["families"]["lt"] == {"j": 6, "index": 18, "clusters": [5, 3, 1]}
    assert data["threshold"] == 7


def test_classify_by_m(capsys):
    code, out, _ = run(capsys, "classify", "--fixture", "pi1", "-k", "4", "-r", "3", "-m", "11")
    data = json.loads(out)
    assert code == 0 and data["lt"] == [6, 5]


def test_map_phi_global(capsys):
    code, out, _ = run(capsys, "map", "--op", "phi", "--partition", "[]", "--zeta", "[1]")
    assert code == 0
    assert json.loads(out)["partition"] == [1]


def test_map_with_trace(capsys):
    code, out, err = run(
        capsys, "map", "--op", "dilate", "--fixture", "pi1",
        "-k", "4", "-r", "3", "-p", "6", "-t", "5", "--trace",
    )
    assert code == 0
    assert "~33" in err and "~37" in err
    data = json.loads(out)
    assert data["weight"] == 454 + 8


def test_map_usage_error_on_nonmember(capsys):
    code, _, err = run(
        capsys, "map", "--op", "dilate", "--fixture", "pi1",
        "-k", "4", "-r", "3", "-p", "6", "-t", "6",
    )
    assert code == 2 and "error" in err


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--set", "C", "-k", "3", "-r", "3", "--max-n", "6")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,count"
    assert lines[1:] == ["0,1", "1,1", "2,1", "3,2", "4,3", "5,3", "6,4"]


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "C", "-k", "3", "-r", "3", "-n", "4")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert sorted(map(tuple, rows)) == [(2, 2), (3, 1), (4,)]


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "sum-product", "--alphas", "1",
        "--eta", "2", "-k", "3", "-r", "3", "--qmax", "18",
    )
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--identity", "companion", "--qmax", "14")
    assert code == 0 and out.startswith("PASS")


def test_roundtrip_command(capsys):
    code, out, _ = run(capsys, "roundtrip", "-k", "3", "-r", "3", "--max-weight", "12")
    assert code == 0
    assert "failures=0" in out


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mark", "--nonsense"])
    assert exc.value.code == 2


def test_mark_without_input_says_why(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mark"])
    assert exc.value.code == 2
    assert "error: give --parts or --fixture" in capsys.readouterr().err


def test_deterministic_output(capsys):
    a = run(capsys, "--seedless", "enumerate", "--set", "F33", "-n", "8")
    b = run(capsys, "--seedless", "enumerate", "--set", "F33", "-n", "8")
    assert a == b and a[0] == 0
