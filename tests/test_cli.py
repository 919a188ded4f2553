import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ggpart
from ggpart import classify, cli, maps, render_grid, series, verify
from ggpart.cli import build_parser, main
from ggpart.fixtures import fixture_marked


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _modules_after(code: str) -> set[str]:
    """Names in sys.modules after `code` runs in a fresh interpreter that
    finds this ggpart first."""
    paths = [str(Path(ggpart.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses and the inspect/ast/dis/tokenize stack it loads cost about
    # 10 ms of every fresh interpreter's start-up, for records a named tuple holds
    added = _modules_after("import ggpart, ggpart.cli") - _modules_after("pass")
    assert "ggpart.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


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


def test_classify_runs_one_lt_clause_pass(monkeypatch, capsys):
    # the sim family is refined from the lt label, not classified again
    mu = fixture_marked("mu")  # the live object the CLI marks: no earlier label answers
    mu._memo.clear()
    calls = []
    real = classify._CLAUSES["lt"]
    monkeypatch.setitem(classify._CLAUSES, "lt", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "classify", "--fixture", "mu", "-k", "4", "-r", "3", "-p", "6", "-t", "5")
    assert code == 0 and len(calls) == 1
    assert out == (
        '{"families": {"lt": {"clusters": [5, 4, 3, 1], "index": 18, "j": 6}, "sim": {"j": 6}}, '
        '"k": 4, "p": 6, "parts": [38, 38, 38, 34, 34, 30, 28, 26, 24, 22, 22, 18, 16, 16, 14, '
        '12, 12, 10, 9, 6, 6, 6, 2, 1], "r": 3, "t": 5, "threshold": 7, "types": {"1": "s3", '
        '"2": "s3", "3": "s2", "4": "s3", "5": "s1", "6": "s1", "7": "s0", "8": "s-1", "9": "s-1"}}\n'
    )


def test_classify_eq_member(capsys):
    code, out, _ = run(capsys, "classify", "--fixture", "pi2", "-k", "4", "-r", "3", "-p", "6", "-t", "5")
    assert code == 0 and json.loads(out)["families"] == {"eq": {"index": 18, "j": 6}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--fixture", "pi1", "-k", "4", "-r", "3"), "classify needs -p"),
        (("map", "--op", "dilate", "--fixture", "pi1", "-p", "6"), "--op dilate needs -t"),
        (("map", "--op", "phi-m", "--fixture", "pi1"), "--op phi-m needs -m"),
        (
            ("verify", "--identity", "companion", "-k", "5", "-r", "5", "--qmax", "20"),
            "--identity companion needs -k 3",
        ),
        (
            ("map", "--op", "phi", "--parts", "4,2", "--zeta", "5", "-k", "4", "-r", "4"),
            "--op phi needs -k 3",
        ),
        (
            ("map", "--op", "psi", "--parts", "5,4,2", "-k", "4", "-r", "4"),
            "--op psi needs -k 3",
        ),
        # only --identity conjecture/product/sum-product and --set B read the family
        (
            ("verify", "--identity", "companion", "--alphas", "1,2", "--eta", "3", "--qmax", "20"),
            "--identity companion does not read --alphas",
        ),
        (
            ("verify", "--identity", "cell", "-k", "4", "-r", "3", "--eta", "3", "--qmax", "16"),
            "--identity cell does not read --eta",
        ),
        (
            ("count", "--set", "C", "--alphas", "1,2", "--eta", "3", "-k", "3", "-r", "3", "--max-n", "3"),
            "--set C does not read --alphas",
        ),
        (("enumerate", "--set", "E", "--eta", "2", "-n", "4"), "--set E does not read --eta"),
        (("enumerate", "--set", "I", "--alphas", "1", "--max-weight", "3"), "--set I does not read --alphas"),
        (("enumerate", "--set", "F33", "--eta", "2", "-n", "3"), "--set F33 does not read --eta"),
        # nor do the other options a target ignores
        (("enumerate", "--set", "F33", "-k", "5", "-r", "5", "-n", "3"), "--set F33 does not read -k"),
        (("enumerate", "--set", "I", "-r", "2", "--max-weight", "4"), "--set I does not read -r"),
        (("enumerate", "--set", "I", "-n", "2", "--max-weight", "4"), "--set I does not read -n"),
        (("enumerate", "--set", "C", "--floor", "1", "-n", "4"), "--set C does not read --floor"),
        (("enumerate", "--set", "F33", "--max-weight", "3"), "--set F33 does not read --max-weight"),
        (("map", "--op", "psi", "--parts", "7,4,1", "--overline", "7"), "--op psi does not read --overline"),
        (
            ("map", "--op", "dilate", "--fixture", "pi1", "-k", "4", "-r", "3", "-p", "6", "-t", "5",
             "--zeta", "5", "-m", "2"),
            "--op dilate does not read -m",
        ),
        (
            ("map", "--op", "insert", "--fixture", "mu", "-k", "4", "-r", "3", "-p", "6", "-t", "5",
             "--zeta", "5"),
            "--op insert does not read --zeta",
        ),
        (("map", "--op", "phi", "--parts", "4", "--zeta", "5", "-p", "3", "-t", "1"), "--op phi does not read -p"),
        (("map", "--op", "psi", "--parts", "7,4,1", "-t", "0"), "--op psi does not read -t"),
        (
            ("map", "--op", "phi-m", "--fixture", "pi1", "-k", "4", "-r", "3", "-m", "11", "-p", "0", "-t", "0"),
            "--op phi-m does not read -p",
        ),
        (
            ("map", "--op", "psi-m", "--fixture", "pi2", "-k", "4", "-r", "3", "-m", "11", "-t", "0"),
            "--op psi-m does not read -t",
        ),
        (
            ("classify", "--fixture", "pi1", "-k", "4", "-r", "3", "-m", "11", "-p", "0", "-t", "0"),
            "classify -m does not read -p",
        ),
        (("mark", "--fixture", "m6", "--parts", "9,9", "--overline", "9"), "--fixture m6 does not read --parts"),
        (("mark", "--fixture", "m6", "--overline", "9"), "--fixture m6 does not read --overline"),
        # only dilate, reduce, insert and separate have intermediate grids to --trace
        (
            ("map", "--op", "phi-pt", "--parts", "5,4,2", "-k", "3", "-r", "3", "-p", "0", "-t", "2", "--trace"),
            "--op phi-pt does not read --trace",
        ),
        (
            ("map", "--op", "psi-pt", "--parts", "5,4,2", "-k", "3", "-r", "3", "-p", "0", "-t", "2", "--trace"),
            "--op psi-pt does not read --trace",
        ),
        (
            ("map", "--op", "phi-m", "--fixture", "pi1", "-k", "4", "-r", "3", "-m", "11", "--trace"),
            "--op phi-m does not read --trace",
        ),
        (
            ("map", "--op", "psi-m", "--fixture", "pi2", "-k", "4", "-r", "3", "-m", "11", "--trace"),
            "--op psi-m does not read --trace",
        ),
        (("map", "--op", "phi", "--parts", "4", "--zeta", "5", "--trace"), "--op phi does not read --trace"),
        (("map", "--op", "psi", "--parts", "7,4,1", "--trace"), "--op psi does not read --trace"),
    ],
    ids=[
        "classify", "dilate", "phi-m", "companion-k5-r5", "phi-k4-r4", "psi-k4-r4",
        "companion-alphas", "cell-eta", "count-C-alphas", "enumerate-E-eta", "enumerate-I-alphas", "F33-eta",
        "F33-k", "I-r", "I-n", "C-floor", "F33-max-weight", "psi-overline",
        "dilate-m", "insert-zeta", "phi-p", "psi-t", "phi-m-p", "psi-m-t", "classify-m-p",
        "mark-fixture-parts", "mark-fixture-overline",
        "phi-pt-trace", "psi-pt-trace", "phi-m-trace", "psi-m-trace", "phi-trace", "psi-trace",
    ],
)
def test_missing_level_options_say_why(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_classify_by_m(capsys):
    code, out, _ = run(capsys, "classify", "--fixture", "pi1", "-k", "4", "-r", "3", "-m", "11")
    data = json.loads(out)
    assert code == 0 and data["lt"] == [6, 5]


def test_map_phi_global(capsys):
    code, out, _ = run(capsys, "map", "--op", "phi", "--partition", "[]", "--zeta", "[1]")
    assert code == 0
    assert json.loads(out)["partition"] == [1]


def test_map_psi_global(capsys):
    code, out, _ = run(capsys, "map", "--op", "psi", "--parts", "7,4,1")
    assert code == 0 and out == '{"partition": [4], "zeta": [7, 1]}\n'
    code, out, _ = run(capsys, "map", "--op", "psi", "--parts", "7,4,1", "--format", "text")
    assert code == 0 and out == "4\nzeta: 7,1\n"


TRACED = [  # op, input fixture, its (p, t) at k=4 r=3, and the grids --trace prints
    ("dilate", "pi1", ("6", "5"), ("pi1_step4", "pi1_step3", "pi1_step2", "pi1_step1")),
    ("reduce", "mu", ("6", "5"), ("pi1_step1", "pi1_step2", "pi1_step3", "pi1_step4")),
    ("insert", "m7", ("3", "1"), ("nu7",)),  # insertion's trace is its midpoint grid
    ("insert", "m12", ("6", "0"), ("nu12",)),
    ("separate", "omega7", ("3", "1"), ("nu7",)),
    ("separate", "omega12", ("6", "0"), ("nu12",)),
]


def test_map_with_trace(capsys):
    code, out, err = run(
        capsys, "map", "--op", "dilate", "--fixture", "pi1",
        "-k", "4", "-r", "3", "-p", "6", "-t", "5", "--trace",
    )
    assert code == 0
    assert "~33" in err and "~37" in err
    data = json.loads(out)
    assert data["weight"] == 454 + 8
    for op, fixture, (p, t), grids in TRACED:
        argv = ("map", "--op", op, "--fixture", fixture, "-k", "4", "-r", "3", "-p", p, "-t", t)
        code, _, err = run(capsys, *argv, "--trace")
        assert code == 0, (op, fixture)
        assert err == "".join(render_grid(fixture_marked(g)) + "\n--\n" for g in grids), (op, fixture)


def test_map_keeps_the_overline(capsys):
    # dilate returns the special partition ~1; the output must not be re-marked
    argv = ("map", "--op", "dilate", "--parts", "1", "--overline", "1",
            "-k", "3", "-r", "3", "-p", "0", "-t", "1")
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0 and out.splitlines()[0] == "~1"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out) == {
        "length": 1, "overline": 1, "p": 0, "partition": [1], "t": 1, "weight": 1
    }
    code, out, _ = run(capsys, "map", "--op", "phi", "--partition", "[]", "--zeta", "[1]", "--format", "json")
    assert "overline" not in json.loads(out)


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


def test_count_bad_params_prints_no_header(capsys):
    cases = [
        (["--set", "B", "--alphas", "1", "--eta", "2", "-k", "1", "-r", "3"], "k=1 r=3 lambda=1"),
        (["--set", "C", "-k", "0", "-r", "0"], "k=0 r=0 lambda=1"),
        (["--set", "E", "-k", "2", "-r", "3"], "k=2 r=3 lambda=0"),
    ]
    for opts, got in cases:
        code, out, err = run(capsys, "count", *opts, "--max-n", "3")
        assert code == 2 and out == ""
        assert err == f"error: need k >= r >= max(lambda, 1), got {got}\n"


def test_unreadable_alphas_names_the_option_and_input(capsys):
    code, out, err = run(capsys, "count", "--set", "B", "--alphas", "1,x", "-k", "3", "-r", "3",
                         "--max-n", "3")
    assert code == 2 and out == ""
    assert err == ("error: --alphas: cannot read '1,x' as a comma list "
                   "(invalid literal for int() with base 10: 'x')\n")


def test_cell_check_with_k_1_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--identity", "cell", "-k", "1", "-r", "1", "--qmax", "5")
    assert code == 2 and out == ""
    assert err == "error: cell needs k >= 2, got k=1\n"


@pytest.mark.parametrize("identity", ["sum-product", "product"])
def test_verify_rejects_r_zero(capsys, identity):
    code, out, err = run(capsys, "verify", "--identity", identity, "--eta", "2",
                         "-k", "3", "-r", "0", "--qmax", "10")
    assert code == 2 and out == ""
    assert err == "error: need k >= r >= max(lambda, 1), got k=3 r=0 lambda=0\n"


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "C", "-k", "3", "-r", "3", "-n", "4")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert sorted(map(tuple, rows)) == [(2, 2), (3, 1), (4,)]


def test_enumerate_odd_distinct_parts(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "I", "--floor", "1", "--max-weight", "9")
    assert code == 0
    assert out.splitlines() == ["[]", "[3]", "[5]", "[7]", "[5, 3]", "[9]"]


VERIFY_PASSING = {
    "conjecture": ("--alphas", "1", "-k", "4", "-r", "3", "--qmax", "16"),
    "product": ("--alphas", "1,2", "--eta", "3", "--qmax", "16"),
    "sum-product": ("--alphas", "1", "--eta", "2", "-k", "3", "-r", "3", "--qmax", "18"),
    "companion": ("--qmax", "14"),
    "cell": ("-k", "4", "-r", "3", "--qmax", "16"),
}


@pytest.mark.parametrize("identity", VERIFY_PASSING)
def test_verify_pass_and_exit_codes(capsys, identity):
    args = VERIFY_PASSING[identity]
    code, out, _ = run(capsys, "verify", "--identity", identity, *args)
    qmax = args[-1]
    assert code == 0 and out == f"PASS {identity} qmax={qmax}\n"


def test_verify_fail_names_expected_and_got(monkeypatch, capsys):
    real = series.bressoud_product

    def off_at_7(params, qmax):
        coeffs = list(real(params, qmax).coeffs)
        coeffs[7] += 1
        return series.TruncatedSeries(coeffs, qmax)

    monkeypatch.setattr(series, "bressoud_product", off_at_7)
    code, out, _ = run(capsys, "verify", "--identity", "product", "--alphas", "1", "--qmax", "12")
    assert code == 1
    assert out == "FAIL product qmax=12 first mismatch at 7 expected 5 got 6\n"


def test_cell_check_covers_empty_cells(monkeypatch, capsys):
    real = series.kursungoz_cell

    def wrong_on_222(counts, r, qmax):
        if tuple(counts) == (2, 2, 2):
            return series.TruncatedSeries([1], qmax)
        return real(counts, r, qmax)

    monkeypatch.setattr(series, "kursungoz_cell", wrong_on_222)
    res = verify.cell(4, 3, 20)
    assert not res.ok and res.first == (((2, 2, 2), 0), 0, 1)
    code, out, _ = run(capsys, "verify", "--identity", "cell", "-k", "4", "-r", "3", "--qmax", "20")
    assert code == 1
    assert out == "FAIL cell qmax=20 first mismatch at ((2, 2, 2), 0) expected 0 got 1\n"


def test_cell_check_reaches_every_cell_below_qmax(monkeypatch, capsys):
    # 2 * 5^2 <= 50, so the (5, 0, 0) cell is compared at q^50
    real = series.kursungoz_cell

    def wrong_on_500(counts, r, qmax):
        coeffs = list(real(counts, r, qmax).coeffs)
        coeffs[-1] += tuple(counts) == (5, 0, 0)
        return series.TruncatedSeries(coeffs, qmax)

    monkeypatch.setattr(series, "kursungoz_cell", wrong_on_500)
    code, out, _ = run(capsys, "verify", "--identity", "cell", "-k", "4", "-r", "4", "--qmax", "50")
    assert code == 1
    assert out == "FAIL cell qmax=50 first mismatch at ((5, 0, 0), 50) expected 1 got 2\n"


def test_roundtrip_command(capsys):
    code, out, _ = run(capsys, "roundtrip", "-k", "3", "-r", "3", "--max-weight", "20")
    assert code == 0
    assert out == (
        "phi(psi) round-trips checked=341\n"
        "psi(phi) round-trips checked=341\n"
        "mismatches=0\n"
        "global round-trips checked=405 failures=0\n"
    )


def test_roundtrip_failure_names_the_first_mismatch(monkeypatch, capsys):
    # a separation that returns its input breaks every (p, t) round trip
    monkeypatch.setattr(maps, "separate_odd", lambda mp, k, r, p, t: mp)
    code, out, _ = run(capsys, "roundtrip", "-k", "3", "-r", "3", "--max-weight", "6")
    assert code == 1
    assert out == (
        "phi(psi) round-trips checked=9\n"
        "psi(phi) round-trips checked=9\n"
        "mismatches=36\n"
        "global round-trips checked=15 failures=0\n"
        "first mismatch at (((0, 0), 0), MarkedPartition()) expected MarkedPartition() "
        "got MembershipError('(1,) is not in the tilde family at (p,t)=(0,0)')\n"
    )


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mark", "--nonsense"])
    assert exc.value.code == 2


NEGATIVE_BOUNDS = [
    ("verify", "--identity", "product", "--qmax", "-1"),
    ("verify", "--identity", "sum-product", "--qmax", "-1"),
    ("verify", "--identity", "conjecture", "--qmax", "-1"),
    ("verify", "--identity", "companion", "--qmax", "-1"),
    ("verify", "--identity", "cell", "--qmax", "-1"),
    ("roundtrip", "--max-weight", "-1"),
    ("count", "-k", "3", "-r", "3", "--max-n", "-1"),
    ("enumerate", "-n", "-1"),
    ("enumerate", "--set", "I", "--floor", "-1"),
    ("enumerate", "--set", "I", "--max-weight", "-1"),
    ("classify", "--parts", "4,2", "-k", "3", "-r", "3", "-p", "-1", "-t", "0"),
    ("classify", "--parts", "4,2", "-k", "3", "-r", "3", "-p", "0", "-t", "-1"),
    ("classify", "--parts", "4,2", "-k", "3", "-r", "3", "-m", "-1"),
    ("map", "--op", "dilate", "--parts", "4,2", "-p", "-1", "-t", "0"),
    ("map", "--op", "dilate", "--parts", "4,2", "-p", "0", "-t", "-1"),
    ("map", "--op", "phi-m", "--parts", "4,2", "-m", "-1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_BOUNDS, ids=" ".join)
def test_negative_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be >= 0, got -1" in err


@pytest.mark.parametrize(
    "option, text",
    [pytest.param("--parts", t, id=t) for t in ("[[1]]", "[1.5]", "[true]", '["3"]', "[4, null]")]
    + [pytest.param("--zeta", "[2.5]", id="--zeta [2.5]")],
)
def test_mark_rejects_non_integer_parts(capsys, option, text):
    if option == "--parts":
        argv = ("mark", "--parts", text)
    else:
        argv = ("map", "--op", "phi", "--parts", "[]", "--zeta", text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {option}: partition entries must be integers, got {text}\n"


def test_classify_has_no_format_option(capsys):
    # classify always prints JSON, so it takes no --format to ignore
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--fixture", "pi1", "-k", "4", "-r", "3", "-p", "6", "-t", "5", "--format", "text"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, text, why",
    [
        ("--parts", "[1,", "Expecting value"),
        ("--parts", "[1,2", "Expecting ',' delimiter"),
        ("--parts", "1.5,2", "invalid literal for int()"),
        ("--parts", "a,b", "invalid literal for int()"),
        ("--zeta", "[1,", "Expecting value"),
    ],
)
def test_malformed_partition_names_the_option_and_input(capsys, option, text, why):
    if option == "--parts":
        argv = ("mark", "--parts", text)
    else:
        argv = ("map", "--op", "phi", "--parts", "[]", "--zeta", text)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option}: cannot read '{text}' as a partition (")
    assert why in err and err.endswith(")\n")


def test_mark_without_input_says_why(capsys):
    code, out, err = run(capsys, "mark")
    assert code == 2 and out == ""
    assert err == "error: mark needs --parts or --fixture\n"


# each subcommand with the options argparse requires of it
REQUIRED = {
    "mark": (),
    "classify": ("-k", "3", "-r", "3"),
    "map": ("--op", "dilate"),
    "count": ("-k", "3", "-r", "3", "--max-n", "0"),
    "enumerate": (),
    "verify": ("--identity", "cell", "--qmax", "0"),
    "roundtrip": ("--max-weight", "0"),
}


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


@pytest.mark.parametrize("cmd", REQUIRED)
def test_option_table_matches_the_parser(capsys, cmd):
    rows = {target: row for (command, target), row in cli._READS.items() if command == cmd}
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    usage = capsys.readouterr().out
    # every --op, --set and --identity choice has a row, and every row is a choice
    selectors = [(flag, re.search(rf"{flag} {{([^}}]*)}}", usage)) for flag in ("--op", "--set", "--identity")]
    choices = {f"{flag} {value}" for flag, found in selectors if found for value in found[1].split(",")}
    assert set(rows) == (choices or ({"classify", "classify -m"} if cmd == "classify" else {cmd}))
    defined = set(vars(build_parser().parse_args([cmd, *REQUIRED[cmd]]))) - {"seedless", "cmd", "fn"}
    read = set()
    for reads, needs in rows.values():
        named = reads.split() + [alt.split()[0] for need in needs for alt in need.split(" or ")]
        assert {_dest(flag) for flag in named} <= defined  # every option a row names exists
        assert set(named) <= set(reads.split())  # and a row reads what it needs
        read |= {_dest(flag) for flag in reads.split()}
    assert defined == read  # every option the subcommand defines is read by some row


def test_deterministic_output(capsys):
    a = run(capsys, "--seedless", "enumerate", "--set", "F33", "-n", "8")
    b = run(capsys, "--seedless", "enumerate", "--set", "F33", "-n", "8")
    assert a == b and a[0] == 0
