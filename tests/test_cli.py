import hashlib
import json
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hcchar import cli
from hcchar.golden import golden_table
from hcchar.qpoly import ZERO, NonDivisibleError, QPoly
from oracles import (
    render_table_csv_by_lines,
    render_table_json_by_dumps,
    render_table_latex_by_lines,
)


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_command(capsys):
    code, out, _ = run(capsys, "char", "--lambda", "4,2", "--mu", "3,3")
    assert code == 0
    assert out.strip() == "4*q^4 - 16*q^3 + 28*q^2 - 16*q + 4"

    code, out, _ = run(capsys, "char", "--lambda", "3", "--mu", "1,1,1")
    assert code == 0 and out.strip() == "8"

    code, out, _ = run(capsys, "char", "--lambda", "4,2,1", "--mu", "7")
    assert code == 0 and out.strip() == "0"


def test_char_method_flags(capsys):
    for method in ("oracle", "recursive", "pfaffian", "combinatorial", "pieri"):
        code, out, _ = run(
            capsys, "char", "--lambda", "5,1", "--mu", "5,1", "--method", method
        )
        assert code == 0
        assert out.strip() == "2*q^4 - 6*q^3 + 6*q^2 - 6*q + 2"


def test_char_domain_errors(capsys):
    code, _, err = run(capsys, "char", "--lambda", "3,1", "--mu", "3")
    assert code == 2 and "weights differ" in err
    code, _, err = run(capsys, "char", "--lambda", "2,2", "--mu", "3,1")
    assert code == 2
    # the Pieri recursion takes every class, even parts included
    code, out, _ = run(capsys, "char", "--lambda", "3,1", "--mu", "2,2", "--method", "pieri")
    assert (code, out) == (0, cli.characters.char_recursive((3, 1), (2, 2)).to_text() + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["char", "--lambda", "3", "--mu", "3", "--method", "bogus"])
    assert exc.value.code == 2


def test_input_nested_past_the_recursion_limit_is_a_usage_error(capsys):
    # the bitrace peels one part of mu per level, so 500 parts recurse
    # past the default limit of 1000 frames
    code, out, err = run(capsys, "sbtr", "--mu", ",".join(["1"] * 500), "--nu", "500")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.splitlines() == [
        "error: input nested deeper than the interpreter's recursion limit "
        f"({sys.getrecursionlimit()} frames)"
    ]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == 'mu\\lambda,"3","2,1"'
    assert lines[1] == '"3","2*q^2 - 2*q + 2","-2*q"'
    assert lines[2] == '"1,1,1","8","4"'


def test_table_n1(capsys):
    code, out, _ = run(capsys, "table", "--n", "1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == '"1","2"'


def test_table_json_roundtrip(capsys):
    code, out, _ = run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1 and payload["n"] == 4
    table = golden_table(4)
    assert len(payload["cells"]) == len(table)
    keys = [(tuple(cell["lambda"]), tuple(cell["mu"])) for cell in payload["cells"]]
    assert keys == list(cli.characters.table_cells(4))
    for cell in payload["cells"]:
        key = (tuple(cell["lambda"]), tuple(cell["mu"]))
        assert QPoly.from_json(cell["poly"]) == table[key]
        assert cell["poly"]["var"] == "q"


def test_table_latex_matches_golden_rendering(capsys):
    for n in range(3, 8):
        code, out, _ = run(capsys, "table", "--n", str(n), "--format", "latex")
        assert code == 0
        assert out == cli.render_table_latex(n, golden_table(n))


def test_table_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--n", "5", "--format", "json")
    _, second, _ = run(capsys, "table", "--n", "5", "--format", "json")
    assert first == second


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "t3.csv"
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("mu\\lambda")
    missing = tmp_path / "no_dir" / "x.csv"
    code, _, err = run(capsys, "table", "--n", "3", "--format", "csv", "--out", str(missing))
    assert code == 4
    assert err == f"error: cannot write {missing}: [Errno 2] No such file or directory: '{missing}'\n"


REFERENCE_RENDERINGS = {
    "json": (cli.render_table_json, render_table_json_by_dumps),
    "csv": (cli.render_table_csv, render_table_csv_by_lines),
    "latex": (cli.render_table_latex, render_table_latex_by_lines),
}


def test_streamed_renderings_match_the_whole_table_references(capsys):
    # the chunk renderers, joined by the library or streamed by the CLI, give
    # the bytes of json.dumps over cell dicts and of the joined field lists
    for n in range(13):
        table = cli.characters.char_table(n)
        for fmt, (render, reference) in REFERENCE_RENDERINGS.items():
            expected = reference(n, table)
            assert render(n, table) == expected, (fmt, n)
            assert run(capsys, "table", "--n", str(n), "--format", fmt) == (0, expected, ""), (fmt, n)


def test_renderings_match_the_references_on_hand_built_values():
    # a Fraction coefficient, the zero polynomial, negative and large
    # coefficients, in a table built in shuffled order and read by key
    n = 6
    cells = list(cli.characters.table_cells(n))
    values = [
        QPoly((Fraction(1, 3), -2, Fraction(-5, 2))),
        ZERO,
        QPoly((-7, 0, -1)),
        QPoly((10**40, -(10**40))),
        QPoly((Fraction(7, 10**20),)),
    ]
    random.Random(6).shuffle(cells)
    table = {cell: values[i % len(values)] for i, cell in enumerate(cells)}
    for fmt, (render, reference) in REFERENCE_RENDERINGS.items():
        assert render(n, table) == reference(n, table), fmt
    payload = json.loads(cli.render_table_json(n, table))
    decoded = {(tuple(c["lambda"]), tuple(c["mu"])): QPoly.from_json(c["poly"]) for c in payload["cells"]}
    assert decoded == table


# `hcchar table --n 8` as (format, SHA-256 of stdout), as printed before the
# renderings streamed
TABLE_8_OUTPUT = {
    "json": "deeda2e8c38e38c13e97c581c67f0fb4b21263e255a04366139817ee388b976c",
    "csv": "8013a7b08e4ead10097c03156e76990aa44d1f413fd598ab73cba71ce8fa5997",
    "latex": "7f4a9e31c08fd996cd2f8dd4afd318fdee3fed481dd3cdd218c849b8c6af4f07",
}


def test_table_without_a_cache_builds_no_table(tmp_path, capsys, monkeypatch):
    # no path of `table` calls char_table, which holds the whole table in a
    # dict: without a cache each value is rendered as it is computed, a miss
    # holds one list of values and a hit the checked cells of the cache file
    def refusing_char_table(n, method="auto"):
        raise AssertionError("char_table called by table")

    monkeypatch.setattr(cli.characters, "char_table", refusing_char_table)
    for fmt, digest in TABLE_8_OUTPUT.items():
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        runs = [run(capsys, "table", "--n", "8", "--format", fmt)]
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / fmt))
        runs += [run(capsys, "table", "--n", "8", "--format", fmt) for _ in ("miss", "hit")]
        for code, out, err in runs:
            assert (code, err) == (0, ""), fmt
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
        assert [path.name for path in (tmp_path / fmt).iterdir()] == ["chartable_n8.json"]


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_table_bytes_are_the_same_without_a_cache_on_a_miss_and_on_a_hit(
    tmp_path, capsys, monkeypatch, fmt
):
    # one path from values to output: stdout and --out get the same bytes
    # with no cache, on a miss (a fresh cache directory) and on the hit after
    def table(sink, cache):
        if cache:
            monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / f"cache-{sink}"))
        else:
            monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        argv = ["table", "--n", "6", "--format", fmt]
        if sink == "stdout":
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), (sink, cache)
            return out.encode()
        target = tmp_path / f"table.{fmt}"
        assert run(capsys, *argv, "--out", str(target)) == (0, "", ""), (sink, cache)
        return target.read_bytes()

    outputs = [table(sink, cache) for sink in ("stdout", "out") for cache in (False, True, True)]
    assert outputs == outputs[:1] * 6


@pytest.mark.parametrize("cached", [False, True], ids=["no cache", "cache miss"])
def test_a_cell_failing_last_writes_nothing(tmp_path, capsys, monkeypatch, cached):
    # the last cell fails after every other has been rendered: stdout stays
    # empty, --out is neither created nor changed, and no cache file appears
    n = 6
    last = list(cli.characters.table_cells(n))[-1]
    core = cli.characters._CORES["auto"]

    def failing_last(lam, mu):
        if (lam, mu) == last:
            raise NonDivisibleError("synthetic fault at the last cell")
        return core(lam, mu)

    monkeypatch.setitem(cli.characters._CORES, "auto", failing_last)
    cache, outputs = tmp_path / "cache", tmp_path / "out"
    cache.mkdir()
    outputs.mkdir()
    if cached:
        monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    else:
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    existing = outputs / "existing.txt"
    existing.write_bytes(b"written earlier\n")
    for fmt in ("json", "csv", "latex"):
        for target in ([], ["--out", str(outputs / "missing.txt")], ["--out", str(existing)]):
            code, out, err = run(capsys, "table", "--n", str(n), "--format", fmt, *target)
            assert (code, out) == (cli.EXIT_INTERNAL, ""), (fmt, target)
            assert err == "internal error: synthetic fault at the last cell\n", (fmt, target)
    assert [path.name for path in outputs.iterdir()] == ["existing.txt"]
    assert existing.read_bytes() == b"written earlier\n"
    assert list(cache.iterdir()) == []


def test_out_replaces_its_target_as_open_would_write_it(tmp_path, capsys):
    # a new file gets the mode that open() gives it, an existing one keeps
    # its mode, a symlink is written through, and a directory is refused
    expected = cli.render_table_csv(3, golden_table(3))
    umask = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.csv"
        assert run(capsys, "table", "--n", "3", "--format", "csv", "--out", str(fresh)) == (0, "", "")
        assert fresh.read_text() == expected
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    finally:
        os.umask(umask)
    kept = tmp_path / "kept.csv"
    kept.write_text("old")
    kept.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(kept)
    assert run(capsys, "table", "--n", "3", "--format", "csv", "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and kept.read_text() == expected
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    code, out, err = run(capsys, "table", "--n", "3", "--out", str(tmp_path))
    assert (code, out) == (cli.EXIT_IO, "") and err.startswith(f"error: cannot write {tmp_path}: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fresh.csv", "kept.csv", "link.csv"]


def test_sbtr_command(capsys):
    code, out, _ = run(capsys, "sbtr", "--mu", "3", "--nu", "3", "--at-q", "1")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "sbtr", "--mu", "1,1", "--nu", "1,1", "--at-q", "1")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(capsys, "sbtr", "--mu", "3", "--nu", "1,1,1", "--at-q", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "sbtr", "--mu", "3", "--nu", "3")
    assert code == 0 and out.strip() == "2*q^4 - 4*q^3 + 10*q^2 - 4*q + 2"
    code, _, err = run(capsys, "sbtr", "--mu", "3", "--nu", "1,1")
    assert code == 2


@pytest.mark.parametrize(
    "at_q",
    ["1e4301", "1E-4_301", " 2.5e+0010000000 ", "1e" + "9" * 9999],
    ids=["1e4301", "1E-4_301", "padded", "9999-digit exponent"],
)
def test_sbtr_refuses_an_at_q_exponent_past_4300(capsys, monkeypatch, at_q):
    # parsing such a string alone takes Fraction seconds to minutes
    def refusing_fraction(text):
        raise AssertionError(f"Fraction called on {text[:20]!r}...")

    monkeypatch.setattr(cli, "Fraction", refusing_fraction)
    code, out, err = run(capsys, "sbtr", "--mu", "3", "--nu", "3", "--at-q", at_q)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --at-q decimal exponent exceeds 4300 in magnitude\n"


@pytest.mark.parametrize(
    "at_q, reason",
    [
        ("1e1100", "gives a value of more than 4300 digits"),
        ("1e-1100", "gives a value of more than 4300 digits"),
        ("1/0", "must be a rational number of at most 4300 digits"),
    ],
)
def test_sbtr_names_at_q_when_its_value_cannot_be_parsed_or_printed(capsys, at_q, reason):
    code, out, err = run(capsys, "sbtr", "--mu", "3", "--nu", "3", "--at-q", at_q)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: --at-q {reason}\n")


@pytest.mark.parametrize("at_q", ["1e4300", "1E-4_300", "3e+0004300", " 1/3 ", "5"])
def test_sbtr_evaluates_at_q_exponents_up_to_4300(capsys, at_q):
    # sbtr of (1) against (1) is the constant 2
    assert run(capsys, "sbtr", "--mu", "1", "--nu", "1", "--at-q", at_q) == (0, "2\n", "")


def test_sbtr_refuses_bad_at_q_text_before_computing(capsys, monkeypatch):
    def refusing_sbtr(mu, nu):
        raise AssertionError("sbtr computed before --at-q was parsed")

    monkeypatch.setattr(cli.bitrace, "sbtr", refusing_sbtr)
    code, out, err = run(capsys, "sbtr", "--mu", "9,7,5,3,1", "--nu", "13,11,1", "--at-q", "abc")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --at-q must be a rational number of at most 4300 digits\n"


# The benchmark's verify workload, as (argv, SHA-256 of its stdout).
VERIFY_WORKLOAD_STDOUT = [
    (("verify", "--suite", "tables", "--n-max", "7"),
     "58e10c2b2a94e6d8d38d6c9ef7453802f940690b7bbe302cac9e2ab6552a76d1"),
    (("verify", "--suite", "cross", "--n-max", "8"),
     "37dd8a8af06abf842a07e1719f3a96337f02aadca0622726da702c805c11e47f"),
    (("verify", "--suite", "symmetry", "--n-max", "8"),
     "a13c150bd4be4adbf18c25bbeb15cd80c19183a99e9a15a07b4c2885fb5c45dd"),
    (("verify", "--suite", "ortho", "--n-max", "6"),
     "c3757308c97c629ea4f5bd54f6dedc06f419771d2a355e3046c30980cc60bac4"),
]


def test_verify_workload_output_is_pinned(capsys):
    # a drift in any verify line of the benchmark's workload fails here by name
    for argv, digest in VERIFY_WORKLOAD_STDOUT:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# The benchmark's table workload renders every cell of weight 15, as
# (weight, SHA-256 of render_table_json).
TABLE_WORKLOAD_JSON = (15, "5db4207434e2fca7f4c50163aeb8f6b458b26fa8f5dee9b9e5f56935d0a0d3aa")


def test_table_workload_output_is_pinned():
    # the strip-weight peel that auto runs and Pieri render the same bytes
    n, digest = TABLE_WORKLOAD_JSON
    for method in ("auto", "pieri"):
        rendered = cli.render_table_json(n, cli.characters.char_table(n, method=method))
        assert hashlib.sha256(rendered.encode()).hexdigest() == digest, method


# Weight 18 under auto, as (weight, SHA-256 of render_table_json): its
# table builds 2,692 strip weights from 522 shapes, the most sharing of any
# weight this suite can afford to render.
SHARED_SHAPE_TABLE_JSON = (18, "4c443f935f03253da2093c49318e5439ad4c92682b2b736b320a5d547017d96c")


def test_shared_shape_table_output_is_pinned():
    # strip weights are memoized by shape, so pairs that share one shape
    # read one entry; the rendered table must not move
    n, digest = SHARED_SHAPE_TABLE_JSON
    rendered = cli.render_table_json(n, cli.characters.char_table(n))
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


def test_verify_small(capsys):
    # the whole report, so any change of wording or order fails here by name
    code, out, err = run(capsys, "verify", "--n-max", "4", "--suite", "all")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "PASS [tables] table n=3 matches the published table (4 cells)",
        "PASS [tables] table n=4 matches the published table (4 cells)",
        "PASS [cross] five-way method agreement, n=1",
        "PASS [cross] closed forms agree on their domains, n=1",
        "PASS [cross] five-way method agreement, n=2",
        "PASS [cross] closed forms agree on their domains, n=2",
        "PASS [cross] five-way method agreement, n=3",
        "PASS [cross] closed forms agree on their domains, n=3",
        "PASS [cross] five-way method agreement, n=4",
        "PASS [cross] closed forms agree on their domains, n=4",
        "PASS [symmetry] palindromic coefficients and degree bound, n=1",
        "PASS [symmetry] palindromic coefficients and degree bound, n=2",
        "PASS [symmetry] palindromic coefficients and degree bound, n=3",
        "PASS [symmetry] palindromic coefficients and degree bound, n=4",
        "PASS [ortho] bitrace orthogonality and regular character, n=1",
        "PASS [ortho] bitrace orthogonality and regular character, n=2",
        "PASS [ortho] bitrace orthogonality and regular character, n=3",
        "PASS [ortho] bitrace orthogonality and regular character, n=4",
        "verify: all checks passed",
    ]


def _off_by_one_at_3_1(fn):
    # fn with 1 added to its value at lambda = mu = (3, 1) only
    def wrong(lam, mu, **kwargs):
        value = fn(lam, mu, **kwargs)
        return value + QPoly((1,)) if (tuple(lam), tuple(mu)) == ((3, 1), (3, 1)) else value

    return wrong


def test_verify_names_the_methods_that_disagree(capsys, monkeypatch):
    methods = cli.characters.METHODS
    monkeypatch.setitem(methods, "pfaffian", _off_by_one_at_3_1(methods["pfaffian"]))
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--suite", "cross")
    assert code == cli.EXIT_FAIL
    lines = out.splitlines()
    assert lines[:6] == [
        f"PASS [cross] {check}, n={n}"
        for n in (1, 2, 3)
        for check in ("five-way method agreement", "closed forms agree on their domains")
    ]
    assert lines[6:] == [
        "FAIL [cross] five-way method agreement, n=4: lambda=3,1, mu=3,1: "
        "oracle gives 2*q^2 - 6*q + 2, recursive gives 2*q^2 - 6*q + 2, "
        "pfaffian gives 2*q^2 - 6*q + 3, combinatorial gives 2*q^2 - 6*q + 2, "
        "pieri gives 2*q^2 - 6*q + 2",
        "PASS [cross] closed forms agree on their domains, n=4",
        "verify: FAILURES detected",
    ]


def test_verify_names_the_failing_cell_of_every_suite(capsys, monkeypatch):
    # a wrong auto value at one cell reaches the table, the symmetry check and
    # the character side of the bitrace: char_value("auto") and
    # char_table("auto") both reach odd mu through the strip-weight core
    wrong = _off_by_one_at_3_1(cli.characters._combinatorial_core)
    monkeypatch.setattr(cli.characters, "_combinatorial_core", wrong)
    fails = {}
    for suite in ("tables", "symmetry", "ortho"):
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--suite", suite)
        assert code == cli.EXIT_FAIL, suite
        fails[suite] = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == {
        "tables": [
            "FAIL [tables] table n=4 matches the published table (4 cells): "
            "lambda=3,1, mu=3,1: computed 2*q^2 - 6*q + 3, published 2*q^2 - 6*q + 2"
        ],
        "symmetry": [
            "FAIL [symmetry] palindromic coefficients and degree bound, n=4: "
            "lambda=3,1, mu=3,1: value 2*q^2 - 6*q + 3, degree bound 2"
        ],
        "ortho": [
            "FAIL [ortho] bitrace orthogonality and regular character, n=4: "
            "mu=3,1, nu=3,1: character pairing gives 12*q^4 - 40*q^3 + 72*q^2 - 52*q + 17, "
            "sbtr gives 12*q^4 - 40*q^3 + 68*q^2 - 40*q + 12, "
            "sbtr_powersum gives 12*q^4 - 40*q^3 + 68*q^2 - 40*q + 12"
        ],
    }


def test_verify_without_checks_is_a_usage_error(capsys):
    for argv in (("--n-max", "0"), ("--n-max", "-3"), ("--suite", "tables", "--n-max", "2")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == cli.EXIT_USAGE, argv
        assert out == "", argv
        assert err.startswith("error: no verify check runs"), argv


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, cold, _ = run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0
    cache_file = tmp_path / "chartable_n4.json"
    assert cache_file.exists()
    code, warm, _ = run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0 and warm == cold

    # corrupt entries are ignored and recomputed
    cache_file.write_text("{not json")
    code, again, _ = run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0 and again == cold


def test_cache_file_body_is_the_json_table_printed(tmp_path, capsys, monkeypatch):
    # a miss stores the JSON rendering of the values it prints, under its
    # digest line
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, cold, _ = run(capsys, "table", "--n", "6", "--format", "json")
    assert code == 0
    digest, body = (tmp_path / "chartable_n6.json").read_bytes().split(b"\n", 1)
    rendered = "".join(cli.table_json_chunks(6, cli.characters.table_values(6)))
    assert body == cold.encode() == rendered.encode()
    assert digest == hashlib.sha256(body).hexdigest().encode()


def test_cache_cross_check_uses_a_second_method(tmp_path, capsys, monkeypatch):
    calls = []
    original = cli.characters.table_values

    def recording(n, method="auto"):
        calls.append(method)
        return original(n, method)

    monkeypatch.setattr(cli.characters, "table_values", recording)
    for method, check in (
        ("recursive", "pieri"),
        ("combinatorial", "pieri"),
        ("auto", "pieri"),
        ("pieri", "combinatorial"),
    ):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / method))
        calls.clear()
        code, _, _ = run(capsys, "table", "--n", "4", "--method", method)
        assert code == 0
        assert calls == [method, check]


def test_cache_cross_check_names_the_disagreeing_cell(tmp_path, capsys, monkeypatch):
    original = cli.characters.table_values

    def second_method_off_by_one(n, method="auto"):
        values = original(n, method)
        if method != "pieri":
            return values
        cells = cli.characters.table_cells(n)
        return (
            value + QPoly((1,)) if cell == ((3, 1), (3, 1)) else value
            for cell, value in zip(cells, values)
        )

    monkeypatch.setattr(cli.characters, "table_values", second_method_off_by_one)
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, err = run(capsys, "table", "--n", "4")
    assert code == cli.EXIT_FAIL and out == ""
    assert err.splitlines() == [
        "error: methods disagree while caching n=4 at lambda=3,1, mu=3,1: "
        "auto gives 2*q^2 - 6*q + 2, pieri gives 2*q^2 - 6*q + 3"
    ]
    assert not list(tmp_path.iterdir())


def test_unwritable_cache_is_an_io_error(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "regular_file"
    blocker.write_text("")
    monkeypatch.setenv(cli.CACHE_ENV, str(blocker))
    code, out, err = run(capsys, "table", "--n", "3")
    assert code == cli.EXIT_IO and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(blocker / "chartable_n3.json") in lines[0]


def test_internal_error_exit_code(capsys, monkeypatch):
    from hcchar.qpoly import NonDivisibleError

    def boom(*args, **kwargs):
        raise NonDivisibleError("synthetic fault")

    monkeypatch.setattr(cli.characters, "char_value", boom)
    code, _, err = run(capsys, "char", "--lambda", "3", "--mu", "3")
    assert code == 3 and "synthetic fault" in err


def test_sbtr_powersum_weight_mismatch():
    from hcchar.bitrace import WeightMismatchError, sbtr_powersum

    with pytest.raises(WeightMismatchError):
        sbtr_powersum((3,), (1, 1))


def test_cache_disabled_without_env(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, _, _ = run(capsys, "table", "--n", "3", "--format", "json")
    assert code == 0
    assert not list(tmp_path.iterdir())


def _set_cell(text: str, lam: str, mu: str, coeffs: str) -> str:
    # replaces the coefficient list of one cell in cache file text, any format
    cell = f'"lambda": [{lam}], "mu": [{mu}], "poly": {{"var": "q", "coeffs": '
    start = text.index(cell) + len(cell)
    end = text.index("]]", start) + 2
    return text[:start] + coeffs + text[end:]


def test_edited_cache_cell_is_not_served(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "5")
    cache_file = tmp_path / "chartable_n5.json"
    cache_file.write_text(_set_cell(cache_file.read_text(), "5", "5", "[[999, 1]]"))
    code, out, err = run(capsys, "table", "--n", "5")
    assert code == 0 and out == cold
    assert err == f"warning: ignoring cache file {cache_file}: content digest mismatch\n"


def test_cache_file_without_digest_is_rewritten(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    cache_file = tmp_path / "chartable_n4.json"
    old_format = cli.render_table_json(4, golden_table(4))
    cache_file.write_text(old_format)
    code, out, err = run(capsys, "table", "--n", "4", "--format", "json")
    assert code == 0 and out == old_format
    assert err == f"warning: ignoring cache file {cache_file}: no content digest line\n"
    digest, body = cache_file.read_text().split("\n", 1)
    assert body == out and digest == hashlib.sha256(body.encode()).hexdigest()
    assert run(capsys, "table", "--n", "4", "--format", "json") == (0, out, "")


@pytest.mark.parametrize(
    "coeffs, reason",
    [
        ("[[1, 2], [1, 2]]", "is not an integer palindromic polynomial of degree at most 4"),
        ("[[1, 1], [2, 1]]", "is not an integer palindromic polynomial of degree at most 4"),
        ("[[1, 1], [0, 1], [0, 1], [0, 1], [0, 1], [1, 1]]", "of degree at most 4"),
        ("[[1, 0]]", "does not convert"),
    ],
)
def test_cached_cell_failing_its_invariants_is_recomputed(
    tmp_path, capsys, monkeypatch, coeffs, reason
):
    # the digest matches, so only the per-cell checks can catch the bad value
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "5", "--format", "json")
    cache_file = tmp_path / "chartable_n5.json"
    body = _set_cell(cold, "5", "5", coeffs)
    cache_file.write_text(hashlib.sha256(body.encode()).hexdigest() + "\n" + body)
    warning = f"warning: ignoring cache file {cache_file}: lambda=5, mu=5: "

    code, out, err = run(capsys, "table", "--n", "5", "--format", "json")
    assert code == 0 and out == cold
    assert err.startswith(warning) and reason in err and err.count("\n") == 1
    assert cache_file.read_text() == hashlib.sha256(cold.encode()).hexdigest() + "\n" + cold


def _write_with_digest(cache_file, body: str) -> None:
    cache_file.write_text(hashlib.sha256(body.encode()).hexdigest() + "\n" + body)


@pytest.mark.parametrize(
    "lam, mu, form, value",
    [
        ("5", "5", "one-row", "2*q^4 - 2*q^3 + 2*q^2 - 2*q + 2"),
        ("4,1", "1,1,1,1,1", "one-column", "48"),
    ],
)
def test_cached_cell_differing_from_its_closed_form_is_recomputed(
    tmp_path, capsys, monkeypatch, lam, mu, form, value
):
    # the constant 2 passes the integer, palindromic and degree checks
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "5", "--format", "json")
    cache_file = tmp_path / "chartable_n5.json"
    as_json = lam.replace(",", ", "), mu.replace(",", ", ")
    _write_with_digest(cache_file, _set_cell(cold, *as_json, "[[2, 1]]"))
    warning = f"warning: ignoring cache file {cache_file}: lambda={lam}, mu={mu}: "

    code, out, err = run(capsys, "table", "--n", "5", "--format", "json")
    assert code == 0 and out == cold
    assert err == warning + f"value 2, {form} form gives {value}\n"
    assert cache_file.read_text() == hashlib.sha256(cold.encode()).hexdigest() + "\n" + cold


def test_load_rejects_the_whole_table_for_one_bad_cell(tmp_path, capsys, monkeypatch):
    # a rejected cell makes the load a miss, which is what a caller counts
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "5", "--format", "json")
    cache_file = tmp_path / "chartable_n5.json"
    _write_with_digest(cache_file, _set_cell(cold, "4, 1", "3, 1, 1", "[[1, 2]]"))
    assert cli.load_cached_table(5) is None
    assert capsys.readouterr().err.count("warning: ignoring cache file") == 1


def test_wrong_cell_passing_every_check_is_served(tmp_path, capsys, monkeypatch):
    # what stays unchecked: the constant 2 is integer, palindromic, within
    # the degree bound and in no closed form's domain, under a fresh digest
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "5", "--format", "json")
    edited = _set_cell(cold, "4, 1", "3, 1, 1", "[[2, 1]]")
    _write_with_digest(tmp_path / "chartable_n5.json", edited)
    assert run(capsys, "table", "--n", "5", "--format", "json") == (0, edited, "")


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda data: data.update(version=2), "cache schema mismatch"),
        (lambda data: data.update(n=4), "cache schema mismatch"),
        (lambda data: data["cells"].pop(), "cache cell set mismatch"),
        (lambda data: data["cells"].append(data["cells"][0]), "cache cell set mismatch"),
        (lambda data: data["cells"][-1].pop("poly"), "malformed cell list (KeyError('poly'))"),
    ],
    ids=["version", "n", "missing cell", "duplicated cell", "cell without poly"],
)
def test_cache_file_failing_a_whole_file_check_is_recomputed(
    tmp_path, capsys, monkeypatch, edit, reason
):
    # the digest matches, so only the schema and cell-set checks can catch these
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "5", "--format", "json")
    cache_file = tmp_path / "chartable_n5.json"
    payload = json.loads(cold)
    edit(payload)
    _write_with_digest(cache_file, json.dumps(payload))
    warning = f"warning: ignoring cache file {cache_file}: {reason}\n"
    assert run(capsys, "table", "--n", "5", "--format", "json") == (0, cold, warning)
    assert cache_file.read_text() == hashlib.sha256(cold.encode()).hexdigest() + "\n" + cold


def test_cache_body_nested_past_the_decoder_depth_is_recomputed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    _, cold, _ = run(capsys, "table", "--n", "3", "--format", "json")
    cache_file = tmp_path / "chartable_n3.json"
    _write_with_digest(cache_file, "[" * 100_000 + "]" * 100_000)
    warning = f"warning: ignoring cache file {cache_file}: undecodable JSON body\n"
    assert run(capsys, "table", "--n", "3", "--format", "json") == (0, cold, warning)


def _probe(statement: str, **env: str) -> tuple[str, str, bool]:
    # runs statement in a fresh interpreter that has imported hcchar.cli:
    # its stdout and stderr, and whether hashlib was imported by then
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import hcchar.cli; {statement}; "
        "print('hashlib' in sys.modules)"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, **env},
    )
    *lines, loaded = child.stdout.splitlines(keepends=True)
    return "".join(lines), child.stderr, loaded == "True\n"


def test_importing_the_cli_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, about 3.7 MB of resident memory; only a cache
    # read or write may import it
    assert _probe("pass") == ("", "", False)


def test_char_does_not_read_the_cache(tmp_path):
    (tmp_path / "chartable_n5.json").write_text("{not json")
    char = "hcchar.cli.main(['char', '--lambda', '5', '--mu', '5'])"
    value = "2*q^4 - 2*q^3 + 2*q^2 - 2*q + 2\n"
    assert _probe(char, **{cli.CACHE_ENV: str(tmp_path)}) == (value, "", False)


def test_python_m_hcchar_runs_the_cli(capsys):
    # python -m hcchar prints what cli.main prints and exits with its status
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for argv in (["char", "--lambda", "4,2", "--mu", "3,3"], ["char", "--lambda", "3,1", "--mu", "3"]):
        child = subprocess.run(
            [sys.executable, "-m", "hcchar", *argv], capture_output=True, text=True, env=env
        )
        assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv), argv


def test_cache_load_does_not_hide_programming_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    assert run(capsys, "table", "--n", "3")[0] == 0

    def broken(n):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(cli.characters, "table_cells", broken)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        cli.main(["table", "--n", "3"])


def test_repeated_main_calls_match_fresh_calls(capsys):
    calls = [
        ("char", "--lambda", "4,2", "--mu", "3,3"),
        ("char", "--lambda", "3", "--mu", "3", "--method", "bogus"),
        ("char", "--lambda", "3,1", "--mu", "3"),
        ("table", "--n", "3", "--format", "csv"),
        ("char", "--lambda", "4,2", "--mu", "3,3"),
    ]
    in_turn = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [0, 2, 2, 0, 0]
