"""End-to-end CLI behavior: reports, exit codes, exports, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trlat

from trlat.cli import run
from trlat import serialize


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def invoke_json(*argv):
    """Run a command whose output is one run report, and check its schema."""
    code, text = invoke(*argv)
    doc = json.loads(text)
    serialize.validate_document(doc, serialize.REPORT_SCHEMA)
    return code, doc


def test_group_info():
    code, doc = invoke_json("group", "info", "--group", "C8")
    assert code == 0
    assert doc["results"]["subgroup_count"] == 4
    assert doc["group"] == {"kind": "cyclic", "n": 8}


def test_ts_generate_empty_is_diagonal():
    code, doc = invoke_json("ts", "generate", "--group", "C8", "--pairs", "")
    assert code == 0
    assert doc["results"]["pairs"] == []
    assert doc["results"]["pair_count"] == 0


def test_ts_generate_c8():
    code, doc = invoke_json("ts", "generate", "--group", "C8", "--pairs", "(1,C4)")
    assert code == 0
    assert doc["results"]["pairs"] == [["1", "C2"], ["1", "C4"]]


def test_ts_generate_unknown_subgroup_is_usage_error():
    code, _ = invoke("ts", "generate", "--group", "C8", "--pairs", "(1,C5)")
    assert code == 2


def test_subgroup_name_errors_print_the_message_itself(tmp_path, capsys):
    """Unknown and ambiguous names, without the quotes str() puts around a
    KeyError's message."""
    code, _ = invoke("ts", "generate", "--group", "C4", "--pairs", "(1,C5)")
    assert code == 2
    assert capsys.readouterr().err == ("usage error: no subgroup named 'C5'; "
                                       "known names: 1, C2, C4\n")
    for sub, sup in (("<d>", "K4"), ("1", "<d>")):
        code, _ = invoke("minimal-universe", "--group", "K4", "--sub", sub, "--sup", sup)
        assert code == 2
        assert capsys.readouterr().err == ("usage error: no subgroup named '<d>'; "
                                           "known names: 1, <a>, <b>, <c>, K4\n")
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"schema_version": 1, "kind": "table", "name": "1",
                                "table": [[0, 1], [1, 0]]}))
    code, _ = invoke("ts", "generate", "--group", f"@{spec}", "--pairs", "(1,1)")
    assert code == 2
    assert capsys.readouterr().err == ("usage error: ambiguous subgroup name '1'; "
                                       "candidates at indices [0, 1]\n")


def test_ts_generate_outside_inclusion_is_a_failed_check():
    code, doc = invoke_json("ts", "generate", "--group", "C4", "--pairs", "(C2,1)")
    assert code == 1
    assert doc["results"] == {"error": "pair (C2, 1) does not refine inclusion"}
    assert doc["checks"] == [{"claim": "relation refines inclusion", "passed": False}]


def test_ts_generate_garbage_pairs_is_usage_error():
    code, _ = invoke("ts", "generate", "--group", "C8", "--pairs", "1,C4")
    assert code == 2
    code, _ = invoke("ts", "generate", "--group", "C8", "--pairs", "1->C4->C8")
    assert code == 2


def test_arrow_pair_syntax_handles_parenthesized_names():
    code, doc = invoke_json("ts", "generate", "--group", "Sym3",
                            "--pairs", "<(12)>->Sym3")
    assert code == 0
    assert ["1", "Sym3"] in doc["results"]["pairs"]
    assert ["<(13)>", "Sym3"] in doc["results"]["pairs"]
    code, doc = invoke_json("ts", "generate", "--group", "C8",
                            "--pairs", "1->C2; C2->C4")
    assert code == 0
    assert doc["results"]["pair_count"] == 3
    # stray separators around and between arrow pairs are skipped
    code, doc = invoke_json("ts", "generate", "--group", "C4", "--pairs", "; 1->C4 ;")
    assert code == 0
    assert doc["results"]["pairs"] == [["1", "C2"], ["1", "C4"]]


def test_arrow_pair_syntax_allows_spaces_around_arrows():
    def report(group, pairs):
        code, doc = invoke_json("ts", "check", "--group", group, "--pairs", pairs)
        return code, doc["results"]
    for spaced in ("1 -> C4", "1 ->C4 ; C2-> C4"):
        assert report("C4", spaced) == report("C4", "1->C4;C2->C4")
    code, doc = invoke_json("ts", "generate", "--group", "Sym3", "--pairs", "<(12)> -> Sym3")
    assert (code, doc["results"]["pair_count"]) == (0, 8)
    assert doc["results"] == invoke_json("ts", "generate", "--group", "Sym3",
                                         "--pairs", "<(12)>->Sym3")[1]["results"]


def test_unknown_group_is_usage_error(tmp_path, capsys):
    for token in ("E8", "C2xC1", "C2xC0"):
        code, _ = invoke("group", "info", "--group", token)
        assert code == 2, token
    specs = {"cyclic_without_n": {"schema_version": 1, "kind": "cyclic"},
             "abelian_without_factors": {"schema_version": 1, "kind": "abelian"},
             "table_without_table": {"schema_version": 1, "kind": "table"},
             "unknown_kind": {"schema_version": 1, "kind": "foo"},
             "zero_order": {"schema_version": 1, "kind": "cyclic", "n": 0}}
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    (tmp_path / "not_json.json").write_text("C8, please")
    capsys.readouterr()
    for name in [*specs, "not_json", "missing"]:
        code, out = invoke("group", "info", "--group", f"@{tmp_path / name}.json")
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), name
        assert err.startswith("usage error: ") and err.count("\n") == 1, (name, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("spec,message", [
    ({"table": [[0, 1], [1, 0]], "names": ["e"]}, "names has length 1, but the table has order 2"),
    ({"table": []}, "empty Cayley table"),
    ({"table": [[0, 1], [1, 2]]}, "table entry 2 outside 0..1"),
], ids=["names-length", "empty-table", "entry-out-of-range"])
def test_table_spec_refusals(spec, message, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "table", **spec}))
    assert invoke("group", "info", "--group", f"@{path}") == (2, "")
    assert capsys.readouterr().err == f"usage error: group spec {path}: {message}\n"


def test_cyclic_token_of_order_zero_is_usage_error(capsys):
    assert invoke("group", "info", "--group", "C0") == (2, "")
    assert capsys.readouterr().err == "usage error: cyclic order must be >= 1, got 0\n"


def test_unknown_flag_is_usage_error():
    code, _ = invoke("ts", "enumerate", "--group", "C4", "--frobnicate")
    assert code == 2


def test_ts_check_reports_violation_and_exits_1():
    code, doc = invoke_json("ts", "check", "--group", "C4", "--pairs", "(1,C4)")
    assert code == 1
    assert doc["results"]["valid"] is False
    assert any("restriction" in v for v in doc["results"]["violations"])
    code, doc = invoke_json("ts", "check", "--group", "C4", "--pairs", "(C2,C4)")
    assert code == 0
    assert doc["results"]["valid"] is True and doc["results"]["saturated"] is True


def test_ts_enumerate_q8_with_orbits():
    code, doc = invoke_json("ts", "enumerate", "--group", "Q8", "--orbits")
    assert code == 0
    assert doc["results"]["count"] == 68
    assert doc["results"]["orbit_count"] == 29
    assert doc["results"]["orbit_profile"] == [[6, 1], [3, 17], [1, 11]]


def test_ts_enumerate_bound_refusal(capsys):
    assert invoke("ts", "enumerate", "--group", "Sym4") == (1, "")
    assert capsys.readouterr().err == ("error: Sym4 has 34 inclusion-pair orbits, "
                                       "above the search bound 24\n")


@pytest.mark.parametrize("argv,refused", [
    (["ts", "enumerate"], True), (["export", "--format", "dot"], True),
    (["export", "--format", "json"], True),
    (["export", "--what", "chain", "--format", "dot"], False)])  # the chain alone instead
def test_bound_flag(argv, refused, capsys):
    """Every command that enumerates Tr(G) takes --bound, checked alike; Q8
    has 12 pair orbits."""
    code, out = invoke(*argv, "--group", "Q8", "--bound", "12")
    assert code == 0 and out
    code, out = invoke(*argv, "--group", "Q8", "--bound", "11")
    if refused:
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == ("error: Q8 has 12 inclusion-pair orbits, "
                                           "above the search bound 11\n")
    else:
        assert code == 0 and out.startswith('digraph "Chain" {')
    for bad in ("-1", "abc"):
        capsys.readouterr()
        code, out = invoke(*argv, "--group", "Q8", "--bound", bad)
        assert (code, out) == (2, "")
        assert f"--bound: bound must be a non-negative integer, got {bad!r}" \
            in capsys.readouterr().err
    code, out = invoke(*argv, "--group", "Q8", "--bound", "9" * 5000)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("--bound: bound is too long: 5000 characters")
    assert len(err) < 300


AUT_REFUSAL = ("error: the automorphism search on C2xC2xC2xC2xC2 would try 28629151 tuples "
               "of generator images, each over 32 elements: 916132832 steps, above the "
               "limit 4194304\n")


def test_group_info_refuses_an_automorphism_search_that_would_not_fit(capsys):
    started = time.perf_counter()
    assert invoke("group", "info", "--group", "C2xC2xC2xC2xC2") == (1, "")
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err == AUT_REFUSAL


@pytest.mark.parametrize("argv,refusal", [
    (("group", "info", "--group", "D1018"), "would join about 130560 pairs of its 511 cyclic "
     "subgroups, each over 1018 elements: 132910080 steps, above the limit 4194304"),
    (("ts", "generate", "--group", "C2xC2xC2xC2xC2xC2", "--pairs", ""),
     "has more than 1024 subgroups: 1055 found so far")], ids=["D1018", "C2^6"])
def test_a_subgroup_lattice_that_would_not_fit_is_refused(argv, refusal, capsys):
    started = time.perf_counter()
    assert invoke(*argv) == (1, "")
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err == f"error: the subgroup lattice of {argv[3]} {refusal}\n"


def test_ts_enumerate_orbits_refuses_before_its_walk(monkeypatch, capsys):
    def walked(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr("trlat.cli.enumerate_all", walked)
    argv = ("ts", "enumerate", "--group", "C2xC2xC2xC2xC2", "--orbits", "--bound", "100000")
    assert invoke(*argv) == (1, "")
    assert capsys.readouterr().err == AUT_REFUSAL


def test_search_bound_environment_is_ignored(monkeypatch, capsys):
    monkeypatch.setenv("TL_SEARCH_BOUND", "3")
    code, doc = invoke_json("ts", "enumerate", "--group", "Q8")
    assert code == 0 and doc["results"]["count"] == 68
    code, text = invoke("export", "--format", "dot", "--group", "Q8")
    assert code == 0 and text.count(" -> ") == 149
    monkeypatch.setenv("TL_SEARCH_BOUND", "40")
    capsys.readouterr()
    assert invoke("ts", "enumerate", "--group", "Sym4") == (1, "")
    assert "above the search bound 24" in capsys.readouterr().err


def _module_env():
    """The environment for a child `python -m trlat.cli` that imports this trlat."""
    env = dict(os.environ)
    src = str(Path(trlat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    """`python -m trlat.cli` runs the CLI."""
    proc = subprocess.run([sys.executable, "-m", "trlat.cli", "group", "info", "--group", "Q8"],
                          capture_output=True, text=True, env=_module_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["subgroup_count"] == 6


def test_a_reader_that_stops_early_ends_the_run_quietly():
    """A closed stdout, as `| head -c 10` leaves it, exits 0 with nothing on stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "trlat.cli", "ts", "enumerate",
                             "--group", "Sym4", "--bound", "34"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")


def test_image_linisom_c6():
    code, doc = invoke_json("image", "linisom", "--group", "C6")
    assert code == 0
    assert doc["results"]["count"] == 5
    assert doc["results"]["universe_count"] == 8


def test_image_steiner_k4():
    code, doc = invoke_json("image", "steiner", "--group", "K4")
    assert code == 0
    assert doc["results"]["count"] == 8


def test_image_linisom_q8_fixture():
    code, doc = invoke_json("image", "linisom", "--group", "Q8")
    assert code == 0
    assert doc["results"]["count"] == 12
    assert doc["results"]["universe_count"] == 16


def test_image_unsupported_group(tmp_path, capsys):
    code, _ = invoke("image", "steiner", "--group", "Sym4")
    assert code == 2
    assert capsys.readouterr().err == ("usage error: no embedding-map data for Sym4; "
                                       "supported: abelian groups and K4, Q8, Sym3\n")
    for token in ("C2xC4", "D10"):
        code, _ = invoke("image", "linisom", "--group", token)
        assert code == 2
        assert capsys.readouterr().err == (f"usage error: no isometries-map data for {token}; "
                                           "supported: cyclic groups and K4, Q8, Sym3\n")
    # a relabeled table is a table: its name picks neither a fixture nor C_n
    k4 = trlat.make_group("K4")
    table = [[k4.compose(a, b) for b in range(4)] for a in range(4)]
    for name in ("Q8", "C4"):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"schema_version": 1, "kind": "table",
                                    "name": name, "table": table}))
        code, _ = invoke("image", "linisom", "--group", f"@{spec}")
        assert code == 2
    code, doc = invoke_json("image", "steiner", "--group", f"@{tmp_path / 'Q8.json'}")
    assert code == 0
    assert doc["group"]["kind"] == "table" and doc["results"]["count"] == 8


def test_realize_cpn():
    code, doc = invoke_json("realize", "cpn", "--p", "2", "--n", "2",
                            "--pairs", "(1,C2)")
    assert code == 0
    assert doc["results"] == {"realizable": True, "index_set": [0, 1, 3], "modulus": 4}


def test_realize_cpn_unsaturated_exits_1():
    code, doc = invoke_json("realize", "cpn", "--p", "2", "--n", "3",
                            "--pairs", "(1,C4)")
    assert code == 1
    assert doc["checks"][0]["passed"] is False


def test_realize_cpq_not_realizable_is_a_result():
    code, doc = invoke_json("realize", "cpq", "--p", "2", "--q", "3",
                            "--pairs", "(1,C3)")
    assert code == 0
    assert doc["results"]["realizable"] is False
    assert doc["results"]["tag"] == "indq"


def test_realize_cpq_table_value():
    code, doc = invoke_json("realize", "cpq", "--p", "5", "--q", "7",
                            "--pairs", "(1,C7)")
    assert code == 0
    assert doc["results"]["index_set"] == [0, 1, 5, 10, 15, 20, 25, 30, 34]


def test_realize_checks_primes_before_building_the_group(capsys):
    """C_{4^12} alone would need a Cayley table of 2^48 entries."""
    for argv, message in ((("cpn", "--p", "4", "--n", "12"), "4 is not prime"),
                          (("cpq", "--p", "4", "--q", "4194304"),
                           "need primes p < q, got (4, 4194304)"),
                          (("cpq", "--p", "7", "--q", "5"), "need primes p < q, got (7, 5)")):
        started = time.perf_counter()
        code, out = invoke("realize", *argv)
        assert (code, out) == (1, "")
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [("cpn", "--p", "{}", "--n", "1"), ("cpn", "--p", "2", "--n", "{}"),
                                  ("cpq", "--p", "2", "--q", "{}")], ids=["p", "n", "q"])
def test_realize_refuses_an_over_long_numeral_without_echoing_it(argv, capsys):
    flag = argv[argv.index("{}") - 1]
    argv = [a.format("9" * 5000) for a in argv]
    assert invoke("realize", *argv) == (2, "")
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"{flag}: numeral is too long: 5000 characters")
    assert len(err) < 300


def test_realize_refuses_a_word_for_a_numeral(capsys):
    assert invoke("realize", "cpn", "--p", "two", "--n", "3") == (2, "")
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --p: invalid int value: 'two'")


def test_realize_refuses_a_negative_exponent(capsys):
    """2^-1 is not a group order; n = 0 gives C1."""
    assert invoke("realize", "cpn", "--p", "2", "--n", "-1") == (1, "")
    assert capsys.readouterr().err == "error: exponent n must be >= 0, got -1\n"
    code, doc = invoke_json("realize", "cpn", "--p", "2", "--n", "0")
    assert code == 0 and doc["results"] == {"realizable": True, "index_set": [0], "modulus": 1}


@pytest.mark.parametrize("argv,code,message", [
    (("group", "info", "--group", "C100000"), 2, "usage error: C100000"),
    (("group", "info", "--group", "C64xC64"), 2, "usage error: C64xC64"),
    (("group", "info", "--group", "D200006"), 2, "usage error: D200006"),
    (("realize", "cpn", "--p", "2", "--n", "1000000000"), 1, "error: C2^1000000000"),
    (("realize", "cpq", "--p", "2", "--q", "2305843009213693951"), 1,
     "error: C4611686018427387902"),
], ids=["C100000", "C64xC64", "D200006", "cpn-2^10^9", "cpq-2-M61"])
def test_oversized_groups_are_refused_before_any_work(argv, code, message, capsys):
    """Each would fill a Cayley table of 10^9 entries or more, or divide by
    every number up to sqrt(2^61)."""
    started = time.perf_counter()
    assert invoke(*argv) == (code, "")
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == f"{message} is above the order limit 2048\n"


@pytest.mark.parametrize("token", ["C" + "9" * 5000, "D" + "9" * 5000, "C2xC" + "9" * 5000],
                         ids=["C", "D", "C2xC"])
def test_numerals_past_the_digit_limit_are_refused(token, capsys):
    """int() refuses a numeral of more than 4300 digits; the token is refused
    first, on one line, without its digits."""
    assert invoke("group", "info", "--group", token) == (2, "")
    assert capsys.readouterr().err == \
        f"usage error: {token[:12]}... (5000 digits) is above the order limit 2048\n"


def test_leading_zeros_are_not_digits_of_the_order():
    code, doc = invoke_json("group", "info", "--group", "C" + "0" * 5000 + "7")
    assert code == 0 and doc["group"] == {"kind": "cyclic", "n": 7}


def test_spec_file_with_a_string_order_is_refused(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": "cyclic", "n": "12"}))
    assert invoke("group", "info", "--group", f"@{path}") == (2, "")
    assert capsys.readouterr().err == \
        f"usage error: group spec {path}: field 'n' must be an integer, got '12'\n"


def test_minimal_universe_refusal_exits_1(capsys):
    code, out = invoke("minimal-universe", "--group", "C2xC2xC2xC2xC2",
                       "--sub", "1", "--sup", "C2xC2xC2xC2xC2")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: C2xC2xC2xC2xC2 has 31 candidate kernels for 1 -> C2xC2xC2xC2xC2, "
        "2147483648 subsets, above the subset limit 32768\n")


def test_minimal_universe():
    code, doc = invoke_json("minimal-universe", "--group", "K4",
                            "--sub", "1", "--sup", "<a>")
    assert code == 0
    assert doc["results"]["minimal_kernel_sets"] == [["<b>"], ["<c>"]]


def test_chain_q8():
    code, doc = invoke_json("chain", "--group", "Q8")
    assert code == 0
    assert doc["results"]["length"] == 13


def test_export_dot(tmp_path):
    target = tmp_path / "tr.dot"
    code, _ = invoke("export", "--what", "tr", "--format", "dot",
                     "--group", "C4", "--out", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 5


def test_export_dot_escapes_the_group_name(tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"schema_version": 1, "kind": "table", "name": 'a"b\\c',
                                "table": [[0, 1], [1, 0]]}))
    code, text = invoke("export", "--format", "dot", "--group", f"@{spec}")
    assert code == 0
    assert text.splitlines()[0] == 'digraph "Tr_a\\"b\\\\c" {'


def test_export_dot_bound(capsys):
    """C2xC6 has 26 pair orbits: over the default bound of 24, within 26."""
    code, text = invoke("export", "--format", "dot", "--group", "C2xC6")
    assert (code, text) == (1, "")
    assert "above the search bound 24" in capsys.readouterr().err
    code, text = invoke("export", "--format", "dot", "--group", "C2xC6", "--bound", "26")
    assert code == 0
    assert text.count(" -> ") == 15010


def test_export_chain_dot_without_tr_behind_it():
    """Past the bound, the chain DOT is the bare chain; within it, the chain
    in bold over the Hasse diagram of Tr(G)."""
    code, text = invoke("export", "--what", "chain", "--format", "dot", "--group", "C2xC6")
    assert code == 0
    assert text.startswith('digraph "Chain" {')
    assert text.count(" -> ") == 26 and "style=bold" in text
    code, text = invoke("export", "--what", "chain", "--format", "dot", "--group", "C2xC6",
                        "--bound", "26")
    assert code == 0
    assert text.startswith('digraph "TrChain" {')
    assert (text.count(" -> "), text.count("style=bold")) == (15010, 53)


def test_export_to_a_path_that_cannot_be_opened(tmp_path, capsys):
    target = tmp_path / "missing" / "x.dot"
    code, out = invoke("export", "--format", "dot", "--group", "C4", "--out", str(target))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: --out {target}: ") and err.count("\n") == 1, err
    assert not target.parent.exists()


def test_export_reports_an_open_that_fails_after_the_checks(tmp_path, monkeypatch, capsys):
    """The checks before any work passed, but the open itself fails."""
    target = tmp_path / "x.dot"
    opened = open

    def refusing(file, *args, **kwargs):
        if file == str(target):
            raise OSError(28, "No space left on device")
        return opened(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", refusing)
    assert invoke("export", "--format", "dot", "--group", "C4", "--out", str(target)) == (2, "")
    assert capsys.readouterr().err == \
        f"usage error: --out {target}: [Errno 28] No space left on device\n"
    assert not target.exists()


def test_export_refuses_an_unwritable_out_before_any_work(tmp_path, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("the export ran")

    monkeypatch.setattr("trlat.cli.hasse_diagram", ran)
    monkeypatch.setattr("trlat.cli.enumerate_all", ran)
    plain = tmp_path / "plain"
    plain.write_text("")
    cases = [(tmp_path / "missing" / "x.dot", f"no directory {tmp_path / 'missing'}"),
             (plain / "x.dot", f"no directory {plain}"),
             (tmp_path, "is a directory")]
    for target, problem in cases:
        for fmt in ("dot", "json"):
            argv = ("export", "--format", fmt, "--group", "Sym4", "--bound", "34",
                    "--out", str(target))
            assert invoke(*argv) == (2, "")
            assert capsys.readouterr().err == f"usage error: --out {target}: {problem}\n"
    monkeypatch.setattr("os.access", lambda *args: False)
    target = tmp_path / "x.dot"
    assert invoke("export", "--format", "dot", "--group", "Sym4", "--out", str(target)) == (2, "")
    assert capsys.readouterr().err == f"usage error: --out {target}: {tmp_path} is not writable\n"
    assert list(tmp_path.iterdir()) == [plain]


def test_export_refuses_an_empty_out_before_any_group(monkeypatch, capsys):
    def built(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr("trlat.cli.parse_group", built)
    for fmt in ("dot", "json"):
        assert invoke("export", "--format", fmt, "--group", "C4", "--out", "") == (2, "")
        assert capsys.readouterr().err == \
            "usage error: --out needs a file name, got an empty string\n"


def test_export_chain_json_is_the_chain_report():
    code, text = invoke("export", "--what", "chain", "--format", "json", "--group", "Q8")
    assert code == 0
    doc = json.loads(text)
    serialize.validate_document(doc, serialize.CHAIN_SCHEMA)
    _, report = invoke_json("chain", "--group", "Q8")
    assert doc == report["results"]["chain"]


def test_export_json_reingests():
    code, text = invoke("export", "--what", "tr", "--format", "json",
                        "--group", "C6")
    assert code == 0
    doc = json.loads(text)
    assert doc["count"] == 10
    from trlat.groups import make_group
    from trlat.lattice import subgroup_lattice
    from trlat.transfer import TransferSystem, enumerate_all
    L = subgroup_lattice(make_group({k: v for k, v in doc["group"].items()}))
    rebuilt = {TransferSystem.from_pairs(L, [tuple(p) for p in pairs])
               for pairs in doc["systems"]}
    assert rebuilt == set(enumerate_all(L))


def test_export_chain_dot_overlay():
    code, text = invoke("export", "--what", "chain", "--format", "dot",
                        "--group", "C4")
    assert code == 0
    assert text.count("style=bold") >= 5


def test_abelian_product_group_token():
    code, doc = invoke_json("group", "info", "--group", "C3xC3")
    assert code == 0
    assert doc["results"]["subgroup_count"] == 6


def test_group_spec_file(tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"schema_version": 1, "kind": "builtin", "name": "Q8"}))
    code, doc = invoke_json("group", "info", "--group", f"@{spec}")
    assert code == 0
    assert doc["results"]["order"] == 8


def test_deterministic_output():
    _, doc1 = invoke_json("ts", "enumerate", "--group", "K4", "--orbits")
    _, doc2 = invoke_json("ts", "enumerate", "--group", "K4", "--orbits")
    doc1.pop("timing_seconds", None)
    doc2.pop("timing_seconds", None)
    assert doc1 == doc2


def test_verify_paper():
    code, text = invoke("verify-paper")
    assert code == 0
    lines = [l for l in text.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(l.startswith("PASS") for l in lines)


def test_verify_paper_json_report():
    code, text = invoke("verify-paper", "--json")
    assert code == 0
    lines = text.splitlines()
    start = lines.index("{")
    assert start == 11  # one PASS line per criterion, then the report
    report = json.loads("\n".join(lines[start:]))
    serialize.validate_document(report, serialize.REPORT_SCHEMA)
    assert report["results"] == {"passed": True}
    assert [c["passed"] for c in report["checks"]] == [True] * 11
