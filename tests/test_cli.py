import json

import pytest

from ggpart import classify, series, verify
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


def test_classify_runs_one_membership_pass(monkeypatch, capsys):
    # the sim family is refined from the lt label, not classified again
    calls = []
    real = classify._member_lt
    monkeypatch.setattr(classify, "_member_lt", lambda *a: calls.append(a) or real(*a))
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
        (("classify", "--fixture", "pi1", "-k", "4", "-r", "3"), "classify needs -p and -t, or -m"),
        (("map", "--op", "dilate", "--fixture", "pi1", "-p", "6"), "--op dilate needs -p and -t"),
        (("map", "--op", "phi-m", "--fixture", "pi1"), "--op phi-m needs -m"),
        (
            ("verify", "--identity", "companion", "-k", "5", "-r", "5", "--qmax", "20"),
            "--identity companion is for -k 3 -r 3 only, got -k 5 -r 5",
        ),
        (
            ("map", "--op", "phi", "--parts", "4,2", "--zeta", "5", "-k", "4", "-r", "4"),
            "--op phi is for -k 3 -r 3 only, got -k 4 -r 4",
        ),
        (
            ("map", "--op", "psi", "--parts", "5,4,2", "-k", "4", "-r", "4"),
            "--op psi is for -k 3 -r 3 only, got -k 4 -r 4",
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
    ],
    ids=[
        "classify", "dilate", "phi-m", "companion-k5-r5", "phi-k4-r4", "psi-k4-r4",
        "companion-alphas", "cell-eta", "count-C-alphas", "enumerate-E-eta", "enumerate-I-alphas", "F33-eta",
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


def test_map_with_trace(capsys):
    code, out, err = run(
        capsys, "map", "--op", "dilate", "--fixture", "pi1",
        "-k", "4", "-r", "3", "-p", "6", "-t", "5", "--trace",
    )
    assert code == 0
    assert "~33" in err and "~37" in err
    data = json.loads(out)
    assert data["weight"] == 454 + 8


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
    res = verify.cell(4, 3, 20, 4)
    assert not res.ok and res.first == (((2, 2, 2), 0), 0, 1)
    code, out, _ = run(capsys, "verify", "--identity", "cell", "-k", "4", "-r", "3", "--qmax", "20")
    assert code == 1
    assert out == "FAIL cell qmax=20 first mismatch at ((2, 2, 2), 0) expected 0 got 1\n"


def test_roundtrip_command(capsys):
    code, out, _ = run(capsys, "roundtrip", "-k", "3", "-r", "3", "--max-weight", "20")
    assert code == 0
    assert out == (
        "phi(psi) round-trips checked=341\n"
        "psi(phi) round-trips checked=341\n"
        "failures=0\n"
        "global round-trips checked=405 failures=0\n"
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
    ("verify", "--identity", "cell", "--qmax", "8", "--max-n1", "-1"),
    ("roundtrip", "--max-weight", "-1"),
    ("count", "-k", "3", "-r", "3", "--max-n", "-1"),
    ("enumerate", "-n", "-1"),
    ("enumerate", "--set", "I", "--floor", "-1"),
    ("enumerate", "--set", "I", "--max-weight", "-1"),
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
    with pytest.raises(SystemExit) as exc:
        main(["mark"])
    assert exc.value.code == 2
    assert "error: give --parts or --fixture" in capsys.readouterr().err


def test_deterministic_output(capsys):
    a = run(capsys, "--seedless", "enumerate", "--set", "F33", "-n", "8")
    b = run(capsys, "--seedless", "enumerate", "--set", "F33", "-n", "8")
    assert a == b and a[0] == 0
