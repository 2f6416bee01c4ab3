import gc
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conngames import (ConnectivityDomain, classify, cli, domain_from_dict, domain_to_dict,
                       enumeration, least_core_value, stability, validate)
from conngames.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "path4": write_json(tmp_path / "path4.json", domain_to_dict(oracles.path4())),
        "cycle4": write_json(tmp_path / "cycle4.json", domain_to_dict(oracles.cycle4())),
        "degenerate": write_json(tmp_path / "deg.json",
                                 domain_to_dict(oracles.adjacent_primaries_domain())),
        "invalid": write_json(tmp_path / "bad.json",
                              {"vertices": 2, "edges": [[0, 0]], "primary": [0],
                               "backbone": [], "standard": [1]}),
        "half": write_json(tmp_path / "half.json", {"imputation": ["1/2", "1/2"]}),
        "setcover": write_json(tmp_path / "sc.json",
                               {"universe": 5,
                                "sets": [[0, 2], [0, 1, 2], [2, 4], [2, 3, 4]]}),
        "k3": write_json(tmp_path / "k3.json",
                         {"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "t": 2}),
        "tmp": tmp_path,
    }


DATA = Path(__file__).resolve().parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_indices_auto_tree(files, capsys):
    code, out, _ = run(capsys, ["indices", files["path4"], "--index", "shapley"])
    assert code == 0
    assert "tree-closed-form" in out
    assert "1/2" in out


def test_indices_exact_cycle(files, capsys):
    code, out, _ = run(capsys, ["indices", files["cycle4"], "--index", "banzhaf",
                                "--method", "exact"])
    assert code == 0
    assert "exact-enumeration" in out
    assert out.count("1/2") == 2


def test_indices_mc_within_tolerance_and_deterministic(files, capsys):
    argv = ["indices", files["cycle4"], "--index", "banzhaf", "--method", "mc",
            "--epsilon", "0.05", "--delta", "0.01", "--seed", "7",
            "--format", "json"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out1)
    for row in report["results"][0]["values"]:
        assert abs(row["value_float"] - 0.5) <= 0.05
        assert row["value_rational"] is None
    assert report["results"][0]["seed"] == 7
    assert report["results"][0]["samples"] is not None
    code, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_indices_csv_format(files, capsys):
    code, out, _ = run(capsys, ["indices", files["cycle4"], "--method", "exact",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "agent,vertex,index_kind,value_rational,value_float,method"
    assert len(lines) == 5  # header + 2 agents x 2 index kinds
    assert "banzhaf" in lines[1] and "shapley" in lines[3]


def test_indices_ranking_descending(files, capsys):
    domain = oracles.path3_with_leaf()
    path = write_json(files["tmp"] / "leaf.json", domain_to_dict(domain))
    code, out, _ = run(capsys, ["indices", path, "--index", "banzhaf",
                                "--format", "json"])
    assert code == 0
    report = json.loads(out)
    ranking = report["results"][0]["ranking"]
    values = {row["agent"]: row["value_float"] for row in report["results"][0]["values"]}
    assert ranking == sorted(values, key=lambda a: (-values[a], a))


def test_indices_explicit_tree_method_on_cycle_exit2(files):
    # The option is gone: "--method exact" takes the closed forms wherever the
    # veto set wins. argparse refuses it before main's error mapping.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "conngames.cli", "indices", files["cycle4"],
                           "--method", "tree"], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert "argument --method: invalid choice: 'tree'" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("option, value, message", [
    ("--epsilon", "0", "epsilon must lie in (0, 1]"),
    ("--delta", "1", "delta must lie in (0, 1)"),
])
def test_indices_checks_the_mc_options_on_the_exact_path_too(files, capsys, option, value,
                                                             message):
    # path3 is answered exactly, yet the argv is refused as it would be where
    # the planner picks Monte Carlo.
    path = write_json(files["tmp"] / "path3.json", domain_to_dict(oracles.path3()))
    code, out, err = run(capsys, ["indices", path, option, value])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_indices_degenerate_domain_auto_uses_exact_zeros(files, capsys):
    code, out, _ = run(capsys, ["indices", files["degenerate"], "--index",
                                "banzhaf", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["domain"]["degenerate_all_win"]
    assert [row["value_float"] for row in report["results"][0]["values"]] == [0.0]


def test_indices_validation_failure_exit2(files, capsys):
    code, _, err = run(capsys, ["indices", files["invalid"]])
    assert code == 2
    assert "self-loop" in err


def test_huge_unlabeled_vertex_count_gives_a_short_message(tmp_path, capsys):
    path = write_json(tmp_path / "huge.json", {"vertices": 200000, "edges": [],
                                               "primary": [0, 1], "backbone": [],
                                               "standard": [2]})
    code, out, err = run(capsys, ["core", path])
    assert (code, out) == (2, "")
    assert "... and 199987 more vertices have no kind label" in err
    assert len(err) < 1000


def test_indices_cap_exceeded_exit3(files, capsys, monkeypatch):
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "1")
    code, _, err = run(capsys, ["indices", files["cycle4"], "--method", "exact"])
    assert code == 3
    assert "cap" in err


def test_indices_auto_falls_back_to_mc_over_cap(files, capsys, monkeypatch):
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "1")
    code, out, _ = run(capsys, ["indices", files["cycle4"], "--index", "banzhaf",
                                "--seed", "3"])
    assert code == 0
    assert "monte-carlo" in out


@pytest.mark.parametrize("accuracy", [["--epsilon", "1e-6"], ["--epsilon", "1e-160"],
                                      ["--epsilon", "1e-170"], ["--epsilon", "5e-324"],
                                      ["--epsilon", "1e-5", "--delta", "5e-324"]])
def test_indices_mc_tiny_epsilon_exit3(files, capsys, accuracy):
    # One agent, yet about 10^12 samples and more: refused before any draw.
    path = write_json(files["tmp"] / "path3.json", domain_to_dict(oracles.path3()))
    code, out, err = run(capsys, ["indices", path, "--method", "mc", *accuracy])
    assert (code, out) == (3, "")
    assert err.startswith("error: Monte Carlo run too large: 1 agents x ")
    assert err.endswith("samples exceeds the bound of 8388608 samples\n")


@pytest.mark.parametrize("env, argv", [
    ("CONNGAMES_EXACT_CAP", ["indices", "cycle4"]),
    ("CONNGAMES_EXACT_CAP", ["ecm", "cycle4", "half", "--epsilon", "0.5"]),
    ("CONNGAMES_EXACT_CAP", ["leastcore", "path4"]),
    ("CONNGAMES_EXACT_CAP", ["leastcore", "cycle4"]),
])
def test_non_integer_env_cap_exit2(files, capsys, monkeypatch, env, argv):
    monkeypatch.setenv(env, "abc")
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {env} must be an integer, got 'abc'\n"


@pytest.mark.parametrize("env, argv, source", [
    (None, ["indices", "cycle4", "--exact-cap", "-5"], "--exact-cap"),
    ("CONNGAMES_EXACT_CAP", ["indices", "cycle4"], "CONNGAMES_EXACT_CAP"),
    (None, ["ecm", "cycle4", "half", "--epsilon", "0.5", "--exact-cap", "-5"],
     "--exact-cap"),
    ("CONNGAMES_EXACT_CAP", ["ecm", "cycle4", "half", "--epsilon", "0.5"],
     "CONNGAMES_EXACT_CAP"),
    (None, ["indices", "path4", "--exact-cap", "-5"], "--exact-cap"),
    ("CONNGAMES_EXACT_CAP", ["leastcore", "path4"], "CONNGAMES_EXACT_CAP"),
    ("CONNGAMES_EXACT_CAP", ["leastcore", "cycle4"], "CONNGAMES_EXACT_CAP"),
])
def test_negative_cap_exit2(files, capsys, monkeypatch, env, argv, source):
    # A cap is checked before the method is planned, so a tree domain, which
    # the closed forms answer without it, still refuses a bad one.
    if env is not None:
        monkeypatch.setenv(env, "-5")
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {source} must be nonnegative, got -5\n"


def test_zero_cap_is_accepted(files, capsys):
    code, out, _ = run(capsys, ["indices", files["cycle4"], "--index", "banzhaf",
                                "--exact-cap", "0"])
    assert code == 0
    assert "monte-carlo" in out


@pytest.mark.parametrize("field, value", [
    ("vertices", True),
    ("vertices", 4.5),
    ("edges", [[0, 2], [2, 1.7]]),
    ("primary", [0, False]),
    ("standard", ["2"]),
])
def test_non_integer_domain_entry_exit2(files, capsys, field, value):
    data = {"vertices": 3, "edges": [[0, 2], [2, 1]], "primary": [0, 1],
            "backbone": [], "standard": [2]}
    data[field] = value
    path = write_json(files["tmp"] / "strict.json", data)
    code, out, err = run(capsys, ["indices", path])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed domain document: {field}: expected an integer")


@pytest.mark.parametrize("entry", [[0, 2, 1], [0], 5, None])
def test_edge_entry_that_is_not_a_pair_exit2(files, capsys, entry):
    # Python's bare unpack message ("too many values to unpack") named no
    # field; the report names the field and shows the entry as it was read.
    data = {"vertices": 3, "edges": [[0, 2], entry], "primary": [0, 1],
            "backbone": [], "standard": [2]}
    path = write_json(files["tmp"] / "pairs.json", data)
    code, out, err = run(capsys, ["indices", path])
    assert (code, out) == (2, "")
    assert err == (f"error: malformed domain document: edges: expected a pair of "
                   f"integers, got {entry!r}\n")


def test_core_tree(files, capsys):
    code, out, _ = run(capsys, ["core", files["path4"], "--imputation",
                                files["half"]])
    assert code == 0
    assert "veto agents: 0, 1" in out
    assert "core empty: no" in out
    assert "in core: yes" in out


def test_core_cycle_empty(files, capsys):
    code, out, _ = run(capsys, ["core", files["cycle4"]])
    assert code == 0
    assert "core empty: yes" in out


def test_core_degenerate_exit4(files, capsys):
    code, _, err = run(capsys, ["core", files["degenerate"]])
    assert code == 4
    assert "degenerate" in err


def test_core_malformed_imputation_exit2(files, capsys):
    bad = write_json(files["tmp"] / "badp.json", {"imputation": ["0.9", "0.9"]})
    code, _, err = run(capsys, ["core", files["path4"], "--imputation", bad])
    assert code == 2
    assert "imputation" in err


@pytest.mark.parametrize("entry", [None, [1], {"a": 1}, float("inf"), float("nan"), "1/0", "x",
                                   True, False],
                         ids=["null", "list", "object", "inf", "nan", "1/0", "x", "true",
                              "false"])
@pytest.mark.parametrize("argv", [["core", "{path4}", "--imputation", "{bad}"],
                                  ["ecm", "{path4}", "{bad}", "--epsilon", "0.5"],
                                  ["ecm", "{cycle4}", "{bad}", "--epsilon", "0.5"]],
                         ids=["core", "ecm-tree", "ecm-enumeration"])
def test_malformed_imputation_entry_exit2(files, capsys, argv, entry):
    bad = write_json(files["tmp"] / "entry.json", {"imputation": [1, entry]})
    code, out, err = run(capsys, [arg.format(bad=bad, **files) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: imputation entry 1 is not a number: {entry!r}\n"


def test_huge_exponent_imputation_entry_exit2_at_once(files, capsys):
    # Fraction("1e999999999") would compute a billion-digit power of ten.
    bad = write_json(files["tmp"] / "huge.json", {"imputation": ["1e999999999", 0]})
    started = time.perf_counter()
    code, out, err = run(capsys, ["ecm", files["cycle4"], bad, "--epsilon", "0.5"])
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: imputation entry 0 is not a number: '1e999999999'\n"


def test_imputation_entries_up_to_the_exponent_bound_load(files):
    entries = ["1e-30", "1/3", "1E4300", "2.5e+3", "-1e-4300", "1e-4301", "1e43_01"]
    path = write_json(files["tmp"] / "entries.json", {"imputation": entries[:5]})
    assert cli._load_imputation(path) == [Fraction(1, 10 ** 30), Fraction(1, 3),
                                          Fraction(10 ** 4300), Fraction(2500),
                                          Fraction(-1, 10 ** 4300)]
    for entry in entries[5:]:
        path = write_json(files["tmp"] / "entry.json", {"imputation": [entry]})
        with pytest.raises(ValueError, match="imputation entry 0 is not a number"):
            cli._load_imputation(path)


def test_ecm_cycle(files, capsys):
    code, out, _ = run(capsys, ["ecm", files["cycle4"], files["half"],
                                "--epsilon", "0.5"])
    assert code == 0
    assert "max excess: 1/2" in out
    assert "witness coalition: 0" in out
    assert "in epsilon-core: yes" in out
    code, out, _ = run(capsys, ["ecm", files["cycle4"], files["half"],
                                "--epsilon", "0.4"])
    assert "in epsilon-core: no" in out


def test_ecm_closed_form_reports_max_excess(files, capsys, tmp_path):
    # Agents 0 and 1 of path4 are veto and paid 1/2 in all; the dummy gets 1/2.
    from conngames import add_dummy
    domain = add_dummy(oracles.path4())
    dpath = write_json(tmp_path / "dummy.json", domain_to_dict(domain))
    ppath = write_json(tmp_path / "p3.json", {"imputation": [0.25, 0.25, 0.5]})
    code, out, _ = run(capsys, ["ecm", dpath, ppath, "--epsilon", "0.5"])
    assert code == 0
    assert out.splitlines()[2:] == ["method: tree-closed-form", "max excess: 1/2 (0.5)",
                                    "witness coalition: 0, 1", "in epsilon-core: yes"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_ecm_closed_form_report_matches_brute_force(tmp_path, capsys, data):
    domain = data.draw(strategies.unanimity_domains())
    assume(classify(domain).veto_wins)
    payoffs = data.draw(strategies.payoffs(domain.n_agents))
    dpath = write_json(tmp_path / "domain.json", domain_to_dict(domain))
    ppath = write_json(tmp_path / "pay.json", {"imputation": [str(x) for x in payoffs]})
    code, out, err = run(capsys, ["ecm", dpath, ppath, "--epsilon", "0", "--format", "json"])
    if any(x < -stability.IMPUTATION_TOL for x in payoffs):
        assert (code, out) == (2, "") and "negative payoff" in err
        return
    assert (code, err) == (0, "")
    report = json.loads(out)
    want = oracles.max_excess_bruteforce(domain, payoffs)
    assert report["method"] == "tree-closed-form"
    assert Fraction(report["max_excess_rational"]) == want
    witness = sum(1 << i for i in report["witness"])
    assert oracles.reference_mask_value(domain, witness) - \
        sum(payoffs[i] for i in report["witness"]) == want
    assert report["in_epsilon_core"] == (want <= stability.IMPUTATION_TOL)


def test_ecm_at_zero_and_core_agree_on_a_winning_veto_set(files, capsys):
    # Agent 0 alone joins the primaries; the isolated agents 1 and 2 are each
    # paid a tolerated -1e-9. At eps = 0 the eps-core is the core.
    tmp = files["tmp"]
    dpath = write_json(tmp / "veto.json", {"vertices": 5, "edges": [[0, 1], [1, 2]],
                                           "primary": [0, 2], "backbone": [],
                                           "standard": [1, 3, 4]})
    ppath = write_json(tmp / "pay.json", {"imputation": [
        "1000000002/1000000000", "-1/1000000000", "-1/1000000000"]})
    code, ecm_out, err = run(capsys, ["ecm", dpath, ppath, "--epsilon", "0"])
    assert (code, err) == (0, "")
    assert "method: tree-closed-form" in ecm_out
    code, core_out, err = run(capsys, ["core", dpath, "--imputation", ppath])
    assert (code, err) == (0, "")
    assert ecm_out.splitlines()[-1] == "in epsilon-core: no"
    assert core_out.splitlines()[-1] == "in core: no"


@pytest.mark.parametrize("name", ["path4", "lollipop"])
@pytest.mark.parametrize("command", ["indices", "ecm", "leastcore", "core"])
def test_closed_form_commands_make_at_most_two_kernel_calls(tmp_path, capsys, monkeypatch,
                                                            command, name):
    # One batch for the veto agents and the degeneracy flags, one coalition
    # for the veto set: every reader of the veto set shares that pass.
    domain = oracles.path4() if name == "path4" else oracles.lollipop(3)
    dpath = write_json(tmp_path / "domain.json", domain_to_dict(domain))
    ppath = write_json(tmp_path / "pay.json",
                       {"imputation": [f"1/{domain.n_agents}"] * domain.n_agents})
    argv = {"indices": ["indices", dpath],
            "ecm": ["ecm", dpath, ppath, "--epsilon", "0.5"],
            "leastcore": ["leastcore", dpath],
            "core": ["core", dpath, "--imputation", ppath]}[command]
    kernel = ConnectivityDomain._win_bits
    calls = []

    def counting(self, usable, full):
        calls.append(full)
        return kernel(self, usable, full)

    monkeypatch.setattr(ConnectivityDomain, "_win_bits", counting)
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert len(calls) <= 2


def test_ecm_refuses_past_the_cap_before_reading_payoffs(files, capsys):
    # A 30-agent graph whose veto set loses and whose 15 primary regions put
    # the Steiner oracle past its budget, with a 2-entry imputation: the cap
    # refusal (exit 3) comes before the imputation's length is checked.
    big = oracles.many_primaries_domain()
    assert not oracles.reference_value(big, oracles.essential_by_removal(big))
    dpath = write_json(files["tmp"] / "big.json", domain_to_dict(big))
    code, out, err = run(capsys, ["ecm", dpath, files["half"], "--epsilon", "0.5"])
    assert (code, out, err) == (3, "", _OVER_CAP)


def test_ecm_answers_a_four_primary_graph_past_the_cap_exactly(files, capsys):
    # A 30-agent graph whose veto set loses, paid 1/30 each: the Steiner
    # oracle finds the smallest winning coalition, then the smallest mask.
    big = oracles.connected_graph_domain(random.Random(30), 30, n_edges=70)
    assert not oracles.reference_value(big, oracles.essential_by_removal(big))
    dpath = write_json(files["tmp"] / "big.json", domain_to_dict(big))
    ppath = write_json(files["tmp"] / "pay.json", {"imputation": ["1/30"] * 30})
    code, out, err = run(capsys, ["ecm", dpath, ppath, "--epsilon", "0.9",
                                  "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    witness = report["witness"]
    assert report["method"] == "exact-steiner"
    assert report["max_excess_rational"] == str(1 - Fraction(len(witness), 30))
    assert report["in_epsilon_core"] is (len(witness) >= 3)
    assert oracles.reference_value(big, witness)
    mask = sum(1 << i for i in witness)
    for size in range(1, len(witness) + 1):
        for members in itertools.combinations(range(30), size):
            if size < len(witness) or sum(1 << i for i in members) < mask:
                assert not oracles.reference_value(big, members), members


@pytest.mark.parametrize("name", ["path4", "cycle4"])
def test_ecm_names_the_negative_payoff_it_refuses(files, capsys, name):
    # The closed form (path4) and the table (cycle4) refuse alike, in the
    # terms of the input file.
    ppath = write_json(files["tmp"] / "neg.json", {"imputation": ["1.5", "-0.5"]})
    code, out, err = run(capsys, ["ecm", files[name], ppath, "--epsilon", "0.5"])
    assert (code, out) == (2, "")
    assert err == ("error: agent 1 has negative payoff -1/2; the epsilon-core test "
                   "takes nonnegative payoffs\n")


def test_ecm_negative_epsilon_exit2(files, capsys):
    code, _, err = run(capsys, ["ecm", files["cycle4"], files["half"],
                                "--epsilon", "-0.1"])
    assert code == 2
    assert "nonnegative" in err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_ecm_non_finite_epsilon_exit2(files, capsys, epsilon):
    code, out, err = run(capsys, ["ecm", files["cycle4"], files["half"],
                                  "--epsilon", epsilon])
    assert code == 2
    assert out == ""
    assert err == "error: epsilon must be a finite number\n"


def test_ecm_non_tree_over_cap_exit3(files, capsys, monkeypatch):
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "1")
    big = write_json(files["tmp"] / "big.json", domain_to_dict(oracles.many_primaries_domain()))
    code, out, err = run(capsys, ["ecm", big, files["half"], "--epsilon", "0.5"])
    assert (code, out) == (3, "")
    assert err == ("error: instance too large for exact solver: 30 agents exceeds "
                   "the enumeration cap of 1\n")


def test_ecm_over_cap_within_the_steiner_budget_answers_exactly(files, capsys, monkeypatch):
    # The enumeration cap bounds the table only: the Steiner oracle answers
    # the 4-cycle past a cap of 1 as the table does under the default cap.
    argv = ["ecm", files["cycle4"], files["half"], "--epsilon", "0.5"]
    code, table_out, _ = run(capsys, argv)
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "1")
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert "method: exact-enumeration" in table_out
    assert out == table_out.replace("exact-enumeration", "exact-steiner")


def test_leastcore_tree_shortcut(files, capsys):
    code, out, _ = run(capsys, ["leastcore", files["path4"]])
    assert code == 0
    assert "tree-closed-form" in out
    assert "least-core epsilon: 0" in out
    assert "agent 0: 1/2" in out


def test_indices_both_builds_the_histograms_once(capsys, monkeypatch):
    calls = []
    counts = enumeration.criticality_size_counts

    def counting(win, n):
        calls.append(n)
        return counts(win, n)

    monkeypatch.setattr(enumeration, "criticality_size_counts", counting)
    code, _, _ = run(capsys, ["indices", str(DATA / "indices20_domain.json"),
                              "--index", "both", "--method", "exact"])
    assert code == 0
    assert calls == [20]


@pytest.mark.parametrize("name", ["path4", "lollipop"])
def test_leastcore_library_and_cli_agree_where_the_veto_set_wins(files, capsys, name):
    domain = oracles.path4() if name == "path4" else oracles.lollipop(3)
    path = write_json(files["tmp"] / "domain.json", domain_to_dict(domain))
    code, out, err = run(capsys, ["leastcore", path, "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    result = least_core_value(domain)
    m = len(oracles.veto_enumeration(domain))
    split = [Fraction(1, m) if i in oracles.veto_enumeration(domain) else 0
             for i in range(domain.n_agents)]
    assert (result.epsilon, list(result.imputation), result.method) == \
        (0, split, "tree-closed-form")
    assert (report["epsilon_min_rational"], report["method"]) == ("0", result.method)
    assert [Fraction(row["value_rational"]) for row in report["imputation"]] == split


def test_a_2000_agent_path_is_answered_without_a_table(files, capsys, monkeypatch):
    # Every agent of the path is veto, and together they win: exactly 1/m,
    # 2^(1-m) and eps = 0, with no win table and no histograms.
    m = 2000
    path = write_json(files["tmp"] / "path.json", {
        "vertices": m + 2, "edges": [[v, v + 1] for v in range(m + 1)],
        "primary": [0, m + 1], "backbone": [], "standard": list(range(1, m + 1))})
    ppath = write_json(files["tmp"] / "pay.json", {"imputation": [f"1/{m}"] * m})

    def refused(domain):
        raise AssertionError("a 2^2000 table was requested")

    monkeypatch.setattr(enumeration, "win_table", refused)
    monkeypatch.setattr(enumeration, "criticality_histograms", refused)
    code, out, err = run(capsys, ["indices", path, "--format", "json"])
    assert (code, err) == (0, "")
    results = {result["index_kind"]: result for result in json.loads(out)["results"]}
    want = {"banzhaf": f"1/{1 << (m - 1)}", "shapley": f"1/{m}"}
    for kind, result in results.items():
        assert result["method"] == "tree-closed-form"
        assert {row["value_rational"] for row in result["values"]} == {want[kind]}
    code, out, err = run(capsys, ["leastcore", path, "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["epsilon_min_rational"] == "0"
    assert {row["value_rational"] for row in report["imputation"]} == {f"1/{m}"}
    code, out, err = run(capsys, ["ecm", path, ppath, "--epsilon", "0", "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["method"] == "tree-closed-form"
    assert (report["max_excess_rational"], report["in_epsilon_core"]) == ("0", True)


def test_leastcore_cycle(files, capsys):
    code, out, _ = run(capsys, ["leastcore", files["cycle4"], "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["epsilon_min_rational"] == "1/2"
    # Its two primaries are two regions: two agent-disjoint paths, one max-flow.
    assert report["method"] == "exact-maxflow"


def test_leastcore_degenerate_exit4(files, capsys):
    code, _, _ = run(capsys, ["leastcore", files["degenerate"]])
    assert code == 4


def test_leastcore_over_cap_exit3(files, capsys, monkeypatch):
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "1")
    big = write_json(files["tmp"] / "big.json", domain_to_dict(oracles.many_primaries_domain()))
    code, _, err = run(capsys, ["leastcore", big])
    assert code == 3
    assert "cap" in err


def test_leastcore_over_cap_within_the_steiner_budget_answers_exactly(files, capsys,
                                                                      monkeypatch):
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "1")
    code, out, err = run(capsys, ["leastcore", files["cycle4"], "--format", "json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["method"], report["epsilon_min_rational"]) == ("exact-maxflow", "1/2")


def test_leastcore_past_the_enumeration_cap_exits_before_any_table(files, capsys,
                                                                    monkeypatch):
    # Past the enumeration cap (24, or CONNGAMES_EXACT_CAP) and the Steiner
    # budget, the refusal comes before a 2^30 table is allocated or the
    # oracle searches.
    domain = oracles.many_primaries_domain()
    path = write_json(files["tmp"] / "graph30.json", domain_to_dict(domain))

    def unbounded(*args):
        raise AssertionError("a 2^30 win table or a Steiner search was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    monkeypatch.setattr(enumeration._Steiner, "least_paid_winning", unbounded)
    for env, cap in ((None, 24), ("29", 29)):
        if env is not None:
            monkeypatch.setenv("CONNGAMES_EXACT_CAP", env)
        code, out, err = run(capsys, ["leastcore", path])
        assert (code, out) == (3, "")
        assert err == (f"error: instance too large for exact solver: 30 agents "
                       f"exceeds the enumeration cap of {cap}\n")


def test_leastcore_past_the_program_budget_exits3(files, capsys, monkeypatch):
    # 500 agents in 4 primary regions: one Steiner search fits the query's
    # work budget, so ecm is answered, but the least core's rounds would
    # pass it, so leastcore is refused, and no table is built.
    domain = str(DATA / "ecm500_domain.json")

    def unbounded(domain):
        raise AssertionError("a 2^500 win table was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    code, out, err = run(capsys, ["leastcore", domain])
    assert (code, out) == (3, "")
    assert err == ("error: instance too large for exact solver: the least core of "
                   "500 agents needs more than 67108864 units of work past the "
                   "enumeration cap of 24\n")
    code, out, err = run(capsys, ["ecm", domain, str(DATA / "ecm500_imputation.json"),
                                  "--epsilon", "0.75", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == (DATA / "ecm500.json").read_text()


def test_a_small_work_budget_refuses_before_the_search_or_solve_past_it(capsys, monkeypatch):
    # steiner48: one search is 17253 units of work. A budget one unit short
    # of it refuses ecm and leastcore before any search; one unit short of
    # the least core's third round refuses leastcore before its third solve
    # and search, while ecm, one search, is answered.
    domain = str(DATA / "steiner48_domain.json")
    ecm_argv = ["ecm", domain, str(DATA / "steiner48_imputation.json"), "--epsilon", "0.75",
                "--format", "json"]
    work = enumeration._Steiner(domain_from_dict(json.loads(Path(domain).read_text()))).work
    assert work == 17253
    calls = []
    search, solve = enumeration._Steiner.least_paid_winning, stability.lp.solve_exact

    def searching(self, scaled):
        calls.append("search")
        return search(self, scaled)

    def solving(n, cuts, start):
        calls.append("solve")
        return solve(n, cuts, start)

    monkeypatch.setattr(enumeration._Steiner, "least_paid_winning", searching)
    monkeypatch.setattr(stability.lp, "solve_exact", solving)
    monkeypatch.setattr(enumeration, "WORK_BUDGET", work - 1)
    over_cap = ("error: instance too large for exact solver: 48 agents exceeds "
                "the enumeration cap of 24\n")
    assert run(capsys, ecm_argv) == (3, "", over_cap)
    assert run(capsys, ["leastcore", domain]) == (3, "", over_cap)
    assert calls == []
    budget = sum(work + stability.ENTRY_WORK * cuts * (48 + cuts) for cuts in (1, 2, 3)) - 1
    monkeypatch.setattr(enumeration, "WORK_BUDGET", budget)
    assert run(capsys, ecm_argv) == (0, (DATA / "ecm48.json").read_text(), "")
    assert calls == ["search"]
    calls.clear()
    assert run(capsys, ["leastcore", domain]) == (3, "", (
        f"error: instance too large for exact solver: the least core of 48 agents "
        f"needs more than {budget} units of work past the enumeration cap of 24\n"))
    assert calls == ["solve", "search"] * 2


def test_leastcore_past_the_enumeration_cap_answers_without_a_table(files, capsys,
                                                                    monkeypatch):
    # The 30-agent graph of 4 primaries is answered by the Steiner oracle,
    # whatever the cap, and the imputation's maximal excess is the least
    # core's epsilon.
    domain = oracles.connected_graph_domain(random.Random(30), 30, n_edges=70)
    path = write_json(files["tmp"] / "graph30.json", domain_to_dict(domain))

    def unbounded(domain):
        raise AssertionError("a 2^30 win table was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    outs = []
    for env in (None, "29"):
        if env is not None:
            monkeypatch.setenv("CONNGAMES_EXACT_CAP", env)
        code, out, err = run(capsys, ["leastcore", path, "--format", "json"])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    epsilon = Fraction(report["epsilon_min_rational"])
    payoffs = [Fraction(row["value_rational"]) for row in report["imputation"]]
    assert report["method"] == "exact-lp" and 0 < epsilon < 1
    excess = stability.max_excess(domain, payoffs)
    assert (excess.max_excess, excess.method) == (epsilon, "exact-steiner")


# One cell per (command, method, domain kind) that no test above pins. The
# forest-quotient domain has a triangle of always-usable vertices, and the
# lollipop a ring of agents hanging off the one agent that joins its
# primaries. Neither raw graph is a tree, yet in both the veto agents win on
# their own, so the closed forms apply.
_OVER_CAP = ("error: instance too large for exact solver: 30 agents exceeds "
             "the enumeration cap of 24\n")


@pytest.mark.parametrize("argv, code, expected", [
    (["indices", "{forest}"], 0, "tree-closed-form"),
    (["indices", "{forest}", "--method", "exact"], 0, "tree-closed-form"),
    (["indices", "{cycle4}"], 0, "exact-enumeration"),
    (["indices", "{degenerate}"], 0, "exact-enumeration"),
    (["indices", "{degenerate}", "--method", "exact"], 0, "exact-enumeration"),
    (["indices", "{path4}", "--method", "exact"], 0, "tree-closed-form"),
    (["indices", "{path4}", "--method", "mc"], 0, "monte-carlo"),
    (["indices", "{big}", "--index", "banzhaf"], 0, "monte-carlo"),
    (["ecm", "{forest}", "{half}", "--epsilon", "0.5"], 0, "tree-closed-form"),
    (["ecm", "{degenerate}", "{one}", "--epsilon", "0"], 0, "exact-enumeration"),
    (["ecm", "{many}", "{big_pay}", "--epsilon", "0.5"], 3, _OVER_CAP),
    (["ecm", "{big}", "{big_pay}", "--epsilon", "0.5"], 0, "exact-steiner"),
    (["indices", "{big}", "--method", "exact"], 3, _OVER_CAP),
    (["leastcore", "{big}"], 0, "exact-lp"),
    (["ecm", "{graph17}", "{pay17}", "--epsilon", "0.5"], 0, "exact-steiner"),
    (["ecm", "{graph17}", "{negative17}", "--epsilon", "0.5"], 0, "exact-steiner"),
    (["leastcore", "{forest}"], 0, "tree-closed-form"),
    (["indices", "{lollipop}"], 0, "tree-closed-form"),
    (["ecm", "{lollipop}", "{lollipop_pay}", "--epsilon", "0.5"], 0, "tree-closed-form"),
    (["leastcore", "{lollipop}"], 0, "tree-closed-form"),
], ids=["indices-auto-forest", "indices-exact-forest", "indices-auto-cycle",
        "indices-auto-degenerate", "indices-exact-degenerate", "indices-exact-tree",
        "indices-mc-tree", "indices-auto-over-cap", "ecm-forest", "ecm-degenerate",
        "ecm-over-cap", "ecm-steiner-over-cap", "indices-exact-over-cap",
        "leastcore-steiner-over-cap", "ecm-steiner-under-cap", "ecm-negative-payoff-steiner",
        "leastcore-forest", "indices-auto-lollipop", "ecm-lollipop", "leastcore-lollipop"])
def test_planner_dispatch(files, capsys, argv, code, expected):
    # ``ecm`` reports the Steiner oracle's tag; the least core's report is
    # exact-lp whichever form separates. A payoff below 0, here ecm17's
    # tolerated -1e-12, leaves the choice of form as it is: the oracle takes
    # the negatively paid agents as free.
    tmp = files["tmp"]
    forest = ConnectivityDomain(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 5)],
                                primary=(0, 4), backbone=(1, 2), standard=(3, 5))
    big = oracles.connected_graph_domain(random.Random(30), 30, n_edges=70)
    paths = dict(files,
                 forest=write_json(tmp / "forest.json", domain_to_dict(forest)),
                 big=write_json(tmp / "big.json", domain_to_dict(big)),
                 many=write_json(tmp / "many.json",
                                 domain_to_dict(oracles.many_primaries_domain())),
                 graph17=str(DATA / "ecm17_domain.json"),
                 pay17=write_json(tmp / "pay17.json", {"imputation": ["1/17"] * 17}),
                 negative17=str(DATA / "ecm17_imputation.json"),
                 lollipop=write_json(tmp / "lollipop.json",
                                     domain_to_dict(oracles.lollipop(3))),
                 one=write_json(tmp / "one.json", {"imputation": [1]}),
                 lollipop_pay=write_json(tmp / "lollipop_pay.json",
                                         {"imputation": ["1/4"] * 4}),
                 big_pay=write_json(tmp / "big_pay.json", {"imputation": ["1/30"] * 30}))
    got, out, err = run(capsys, [arg.format(**paths) for arg in argv] + ["--format", "json"])
    assert got == code, err
    if code:
        assert (out, err) == ("", expected)
        return
    report = json.loads(out)
    assert err == ""
    methods = {row["method"] for row in report.get("results", [report])}
    assert methods == {expected}


def test_generate_setcover_roundtrip(files, capsys, tmp_path):
    out_path = tmp_path / "fig.json"
    code, out, _ = run(capsys, ["generate", "setcover", files["setcover"],
                                "--out", str(out_path)])
    assert code == 0
    assert "target agent 4" in out
    data = json.loads(out_path.read_text())
    domain = domain_from_dict(data)
    assert validate(domain).ok
    assert domain.vertex_count == 11
    assert data["meta"]["target_agent"] == 4
    code, _, _ = run(capsys, ["indices", str(out_path), "--method", "exact",
                              "--index", "banzhaf", "--format", "json"])
    assert code == 0


def test_generate_vertexcover_sidecar(files, capsys, tmp_path):
    out_path = tmp_path / "k3dom.json"
    code, out, _ = run(capsys, ["generate", "vertexcover", files["k3"],
                                "--out", str(out_path)])
    assert code == 0
    sidecar = tmp_path / "k3dom.imputation.json"
    assert sidecar.exists()
    payload = json.loads(sidecar.read_text())
    assert payload["imputation"] == ["1/3", "1/3", "1/3"]
    assert payload["epsilon"] == "1/3"
    domain = domain_from_dict(json.loads(out_path.read_text()))
    assert validate(domain).ok
    ppath = write_json(tmp_path / "eq.json", {"imputation": payload["imputation"]})
    code, out, _ = run(capsys, ["ecm", str(out_path), ppath, "--epsilon",
                                str(payload["epsilon_float"])])
    assert code == 0
    assert "in epsilon-core: yes" in out


def test_generate_vertexcover_threshold_past_the_vertex_count_exit2(capsys, tmp_path):
    inst = write_json(tmp_path / "t5.json", {"vertices": 3, "edges": [[0, 1], [1, 2]], "t": 5})
    out_path = tmp_path / "t5_domain.json"
    code, out, err = run(capsys, ["generate", "vertexcover", inst, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == ("error: threshold t = 5 exceeds the 3 vertices, so epsilon = 1 - t/n "
                   "would be negative\n")
    assert not out_path.exists()


def test_generate_uncovered_item_warns_but_writes(files, capsys, tmp_path):
    inst = write_json(tmp_path / "gap.json", {"universe": 3, "sets": [[0], [1]]})
    out_path = tmp_path / "gap_domain.json"
    code, _, err = run(capsys, ["generate", "setcover", inst, "--out", str(out_path)])
    assert code == 0
    assert "no cover exists" in err
    assert out_path.exists()


def test_generate_lists_at_most_ten_uncovered_items(capsys, tmp_path):
    inst = write_json(tmp_path / "gap.json", {"universe": 50, "sets": [[0]]})
    code, _, err = run(capsys, ["generate", "setcover", inst,
                                "--out", str(tmp_path / "gap_domain.json")])
    assert code == 0
    assert err == ("warning: items [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] ... and 39 more "
                   "are in no set; no cover exists (count is 0)\n")


@pytest.mark.parametrize("kind, instance, vertices", [
    ("setcover", {"universe": 1000000000, "sets": []}, 1000000002),
    ("vertexcover", {"vertices": 99999, "edges": [[0, 1]], "t": 1}, 100001),
])
def test_generate_past_the_vertex_bound_exit3_before_building(capsys, tmp_path, kind,
                                                              instance, vertices):
    inst = write_json(tmp_path / "huge.json", instance)
    out_path = tmp_path / "huge_domain.json"
    started = time.perf_counter()
    code, out, err = run(capsys, ["generate", kind, inst, "--out", str(out_path)])
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (3, "")
    assert err == (f"error: instance too large: its domain would have {vertices} "
                   f"vertices, past the generator's bound of 100000\n")
    assert not out_path.exists()


def test_generate_setcover_past_the_edge_bound_exit3_before_building(capsys, tmp_path):
    # 2000 one-item sets: 2001 * 2000 / 2 clique edges, 2000 item edges and v_b's.
    inst = write_json(tmp_path / "sets.json", {"universe": 1, "sets": [[0]] * 2000})
    out_path = tmp_path / "sets_domain.json"
    started = time.perf_counter()
    code, out, err = run(capsys, ["generate", "setcover", inst, "--out", str(out_path)])
    assert time.perf_counter() - started < 0.5
    assert (code, out) == (3, "")
    assert err == ("error: instance too large: its domain would have 2003001 edges, "
                   "past the generator's bound of 100000\n")
    assert not out_path.exists()


def test_generate_malformed_instance_exit2(files, capsys, tmp_path):
    inst = write_json(tmp_path / "broken.json", {"universe": 2})
    code, _, _ = run(capsys, ["generate", "setcover", inst, "--out",
                              str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("kind, instance, field, value", [
    ("setcover", {"universe": 1e400, "sets": []}, "universe", float("inf")),
    ("setcover", {"universe": 2, "sets": [[1.5]]}, "sets", 1.5),
    ("vertexcover", {"vertices": 3, "edges": [[0, True]], "t": 1}, "edges", True),
    ("vertexcover", {"vertices": 3, "edges": [[0, 1]], "t": "1"}, "t", "1"),
])
def test_generate_non_integer_instance_field_exit2(capsys, tmp_path, kind, instance, field,
                                                   value):
    inst = write_json(tmp_path / "inst.json", instance)
    out_path = tmp_path / "dom.json"
    code, out, err = run(capsys, ["generate", kind, inst, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err == (f"error: malformed {kind.replace('cover', '-cover')} instance: "
                   f"{field}: expected an integer, got {value!r}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["setcover", "vertexcover"])
def test_generate_unwritable_out_exit2(files, capsys, kind):
    out_path = files["tmp"] / "missing" / "dom.json"
    instance = files["setcover" if kind == "setcover" else "k3"]
    code, out, err = run(capsys, ["generate", kind, instance, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}: [Errno 2]")


def test_generate_empty_vertexcover_exit2(capsys, tmp_path):
    inst = write_json(tmp_path / "empty.json", {"vertices": 0, "edges": [], "t": 0})
    code, out, err = run(capsys, ["generate", "vertexcover", inst,
                                  "--out", str(tmp_path / "dom.json")])
    assert (code, out) == (2, "")
    assert err == "error: vertex-cover instance needs at least one vertex\n"


def test_deeply_nested_json_exit2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, ["core", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: maximum recursion depth exceeded")


def test_cli_reruns_are_byte_identical(files, capsys, tmp_path):
    invocations = [
        ["indices", files["path4"]],
        ["indices", files["cycle4"], "--method", "exact", "--format", "json"],
        ["indices", files["cycle4"], "--method", "mc", "--seed", "11",
         "--format", "csv"],
        ["core", files["path4"], "--imputation", files["half"], "--format", "json"],
        ["ecm", files["cycle4"], files["half"], "--epsilon", "0.5",
         "--format", "json"],
        ["leastcore", files["cycle4"], "--format", "json"],
    ]
    for argv in invocations:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second, argv
    out_path = tmp_path / "gen.json"
    run(capsys, ["generate", "vertexcover", files["k3"], "--out", str(out_path)])
    blob1 = out_path.read_bytes()
    side1 = (tmp_path / "gen.imputation.json").read_bytes()
    run(capsys, ["generate", "vertexcover", files["k3"], "--out", str(out_path)])
    assert out_path.read_bytes() == blob1
    assert (tmp_path / "gen.imputation.json").read_bytes() == side1


def test_main_reuses_its_parser_without_carrying_state(files, capsys):
    exact = ["indices", files["cycle4"], "--index", "banzhaf"]
    leastcore = ["leastcore", files["cycle4"], "--format", "json"]
    first = [run(capsys, exact), run(capsys, leastcore)]
    parser = cli._parser()
    # A flag given to one call does not leak into the next one.
    assert "monte-carlo" in run(capsys, exact + ["--exact-cap", "0"])[1]
    # Usage errors exit through argparse with status 2.
    for argv in (["leastcore"], ["indices", files["cycle4"], "--method", "bogus"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert [run(capsys, exact), run(capsys, leastcore)] == first
    assert cli._parser() is parser


def test_indices_mc_output_is_pinned(capsys):
    # Recorded before Monte Carlo was batched through the win-table kernel;
    # pins the per-agent streams (sub-seed digest, getrandbits, shuffle) on
    # every Python version the suite runs on.
    code, out, err = run(capsys, ["indices", str(DATA / "mc30_domain.json"),
                                  "--method", "mc", "--seed", "11", "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "mc30_seed11.json").read_bytes()


def test_leastcore_exact_output_is_pinned(capsys):
    # A 14-agent non-tree graph: an exact rational least core where a float
    # LP answered before.
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore14_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore14.json").read_bytes()


def test_leastcore_16_agent_output_is_pinned(capsys):
    # A 16-agent non-tree graph whose least core takes 17 restricted programs.
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore16_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore16.json").read_bytes()


def test_leastcore_16_agent_text_report_is_pinned(capsys):
    # The same least core as the JSON golden above, as the default text report.
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore16_domain.json")])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore16.txt").read_bytes()


def test_leastcore_16_agent_optimal_vertex_is_pinned(capsys):
    # A 16-agent graph whose least core (eps = 5/6) has more than one optimal
    # imputation, from a bench leastcore cycle: the dual simplex's leaving
    # and entering rules decide which one is reported.
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore16_tie_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore16_tie.json").read_bytes()


def test_leastcore_20_agent_output_is_pinned(capsys):
    # A 20-agent non-tree graph past the old least-core LP cap of 16, whose
    # primaries lie in two regions: one max-flow answers, with no rounds.
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore20_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore20.json").read_bytes()


@pytest.mark.parametrize("name", ["leastcore14", "leastcore16", "leastcore18"])
def test_leastcore_under_the_cap_builds_no_win_table(capsys, monkeypatch, name):
    # Bench-style graphs of 14, 16 and 18 agents (the last in 3 primary
    # regions): one Steiner search's work is at most the table's 2^n - 1
    # coalitions, so the least core separates with the oracle, as maximal
    # excess would, and prints the same golden as through the table.
    def unbounded(domain):
        raise AssertionError("a win table was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    code, out, err = run(capsys, ["leastcore", str(DATA / f"{name}_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / f"{name}.json").read_bytes()


def test_leastcore_96_agent_output_past_the_cap_is_pinned(capsys, monkeypatch):
    # A dense 96-agent graph (a quarter of all vertex pairs are edges) whose
    # veto set loses: past the enumeration cap, the Steiner oracle separates
    # 71 rounds, each solve going on from the last round's program, to
    # eps = 24/25.
    solve = stability.lp.solve_exact
    rounds = []

    def counting(n, cuts, start):
        rounds.append(len(cuts))
        return solve(n, cuts, start)

    monkeypatch.setattr(stability.lp, "solve_exact", counting)
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore96_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore96.json").read_bytes()
    assert rounds == list(range(1, 72))


def test_leastcore_500_agent_two_region_output_is_pinned(capsys, monkeypatch):
    # 500 agents (6312 edges) whose two primaries are two regions: one
    # max-flow answers past the enumeration cap, eps = 21/22 with 1/22 on
    # each agent of a 22-agent cut, with no program, search or table.
    def refused(*args):
        raise AssertionError("a program, a Steiner search or a win table was requested")

    monkeypatch.setattr(stability.lp, "solve_exact", refused)
    monkeypatch.setattr(enumeration._Steiner, "least_paid_winning", refused)
    monkeypatch.setattr(enumeration, "win_table", refused)
    code, out, err = run(capsys, ["leastcore", str(DATA / "leastcore500_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "leastcore500.json").read_bytes()


def test_ecm_17_agent_output_is_pinned(capsys):
    # A 17-agent non-tree graph. Six winning coalitions of three agents share
    # the least payment, so the witness is the smallest mask among them; agent
    # 0's tolerated -1e-12 makes it free, so it joins every candidate, and the
    # Steiner oracle answers as it does for nonnegative payoffs.
    code, out, err = run(capsys, ["ecm", str(DATA / "ecm17_domain.json"),
                                  str(DATA / "ecm17_imputation.json"), "--epsilon", "0.75",
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "ecm17.json").read_bytes()


def test_setcover_past_62_vertices_exact_output_is_pinned(capsys):
    # The set-cover game of a 15-agent instance has 68 vertices; both exact
    # indices come from one 2^15 win table.
    code, out, err = run(capsys, ["indices", str(DATA / "setcover15_domain.json"),
                                  "--index", "both", "--method", "exact", "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "setcover15_exact.json").read_bytes()


def test_indices_20_agent_output_is_pinned(capsys):
    # A 20-agent non-tree graph: both exact indices from one 2^20 table and
    # one pass of histograms.
    code, out, err = run(capsys, ["indices", str(DATA / "indices20_domain.json"),
                                  "--index", "both", "--method", "exact", "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "indices20.json").read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["indices", "--index", "both"], "unanimity30_indices.json"),
    (["indices", "--index", "both", "--method", "exact"], "unanimity30_indices.json"),
    (["leastcore"], "unanimity30_leastcore.json"),
    (["ecm", str(DATA / "unanimity30_imputation.json"), "--epsilon", "0.5"],
     "unanimity30_ecm.json"),
], ids=["indices", "indices-exact", "leastcore", "ecm"])
def test_unanimity_30_agent_output_is_pinned(capsys, argv, golden):
    # Two primaries joined through one agent, with a ring of 29 agents hanging
    # off it: past the enumeration cap, yet that agent alone wins, so the
    # closed forms answer exactly where Monte Carlo and exit 3 answered before.
    # "--method exact" asks the same exact solvers, so it prints the same
    # bytes. The ecm golden pins the closed form's max-excess report field by field.
    code, out, err = run(capsys, [argv[0], str(DATA / "unanimity30_domain.json"),
                                  *argv[1:], "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / golden).read_bytes()


def test_core_48_agent_output_is_pinned(capsys):
    # A 48-agent non-tree graph (a spanning tree plus 10 chords) with two
    # veto agents; one batch of 48 coalitions finds both.
    code, out, err = run(capsys, ["core", str(DATA / "core48_domain.json"),
                                  "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / "core48.json").read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["ecm", str(DATA / "steiner48_imputation.json"), "--epsilon", "0.75"], "ecm48.json"),
    (["ecm", str(DATA / "steiner48_negative_imputation.json"), "--epsilon", "0.75"],
     "ecm48_negative.json"),
    (["leastcore"], "leastcore48.json"),
], ids=["ecm", "ecm-negative", "leastcore"])
def test_steiner_48_agent_output_is_pinned(capsys, argv, golden):
    # A 48-agent graph (a spanning tree plus chords, 160 edges) whose 4
    # primaries lie in 4 regions and whose veto set loses: past the
    # enumeration cap, the Steiner oracle answers where exit 3 answered before.
    # In the second imputation agent 0 is paid a tolerated -1e-12 (its share
    # moved to agent 1): the oracle takes it as free and adds it to the
    # witness, and the losing side needs no table.
    code, out, err = run(capsys, [argv[0], str(DATA / "steiner48_domain.json"),
                                  *argv[1:], "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["indices", "indices20_domain.json", "--index", "both", "--method", "exact",
      "--format", "text"], "indices20.txt"),
    (["indices", "indices20_domain.json", "--index", "both", "--method", "exact",
      "--format", "csv"], "indices20.csv"),
    (["indices", "unanimity30_domain.json", "--index", "both", "--format", "text"],
     "unanimity30_indices.txt"),
    (["indices", "unanimity30_domain.json", "--index", "both", "--format", "csv"],
     "unanimity30_indices.csv"),
    (["ecm", "ecm17_domain.json", "ecm17_imputation.json", "--epsilon", "0.75",
      "--format", "text"], "ecm17.txt"),
    (["core", "core48_domain.json", "--format", "text"], "core48.txt"),
], ids=["indices20-text", "indices20-csv", "unanimity30-text", "unanimity30-csv",
        "ecm17-text", "core48-text"])
def test_text_and_csv_renderings_are_pinned(capsys, argv, golden):
    # The text and csv reports of inputs whose JSON reports are pinned above:
    # ranked rows with rational and float cells, a rational max excess with
    # its float, and the veto agents.
    argv = [str(DATA / arg) if arg.endswith(".json") else arg for arg in argv]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("argv", [
    ["core", "{graph}"],
    ["indices", "{path4}"],
    ["ecm", "{path4}", "{half}", "--epsilon", "0.5"],
    ["ecm", "{graph}", "{pay}", "--epsilon", "0.5"],
    ["generate", "setcover", "{setcover}", "--out", "{out}"],
], ids=["core", "indices-closed-form", "ecm-closed-form", "ecm-steiner", "generate"])
def test_queries_without_a_table_do_not_load_numpy(files, argv):
    paths = dict(files, graph=str(DATA / "ecm17_domain.json"),
                 pay=write_json(files["tmp"] / "pay.json", {"imputation": ["1/17"] * 17}),
                 out=str(files["tmp"] / "out.json"))
    script = ("import sys\n"
              "from conngames.cli import main\n"
              f"assert main({[arg.format(**paths) for arg in argv]!r}) == 0\n"
              "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "method: exact-enumeration" not in out
    assert out.splitlines()[-1] == "False"


def test_leastcore_run_does_not_load_scipy():
    path = DATA / "leastcore14_domain.json"
    script = ("import sys\n"
              "from conngames.cli import main\n"
              f"assert main(['leastcore', {str(path)!r}]) == 0\n"
              "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "method: exact-lp" in out
    assert out.splitlines()[-1] == "False"


# ---------------------------------------------------------------- fuzz

# Integers stay small: ``generate`` builds one vertex per set-cover item or
# vertex-cover vertex, so a huge count costs memory in proportion.
_JSON_KEYS = st.sampled_from(["vertices", "edges", "primary", "backbone", "standard",
                              "imputation", "universe", "sets", "t"]) | st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_JSON_KEYS, children, max_size=4)),
    max_leaves=10)


def _containers(node):
    yield node
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            yield from _containers(child)


@st.composite
def _documents(draw, document):
    """Either any JSON value, or ``document`` with up to two entries of its
    nested lists and objects replaced, deleted or added in place."""
    if draw(st.booleans()):
        return draw(_JSON)
    for _ in range(draw(st.integers(0, 2))):
        node = draw(st.sampled_from(list(_containers(document))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if keys and action != "add":
            key = draw(st.sampled_from(keys))
            if action == "delete":
                del node[key]
            else:
                node[key] = draw(_JSON)
        elif isinstance(node, dict):
            node[draw(_JSON_KEYS)] = draw(_JSON)
        else:
            node.append(draw(_JSON))
    return document


@st.composite
def _cli_inputs(draw):
    domain = draw(strategies.domains(max_agents=6, wide=False))
    payoffs = draw(strategies.payoffs(domain.n_agents))
    setcover = {"universe": draw(st.integers(0, 4)),
                "sets": draw(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=4))}
    vertexcover = {"vertices": 3, "edges": [[0, 1], [1, 2]], "t": draw(st.integers(0, 3))}
    return {"domain": draw(_documents(domain_to_dict(domain))),
            "imputation": draw(_documents({"imputation": [str(x) for x in payoffs]})),
            "setcover": draw(_documents(setcover)),
            "vertexcover": draw(_documents(vertexcover))}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_cli_inputs())
def test_cli_exit_codes_hold_for_any_json_input(tmp_path, capsys, monkeypatch, inputs):
    monkeypatch.setenv("CONNGAMES_EXACT_CAP", "4")
    paths = {name: write_json(tmp_path / f"{name}.json", document)
             for name, document in inputs.items()}
    mc = ["--method", "mc", "--epsilon", "0.3", "--delta", "0.3"]
    out = str(tmp_path / "out.json")
    for argv in (["indices", "{domain}"], ["indices", "{domain}", "--method", "exact"],
                 ["indices", "{domain}", "--method", "exact", *mc[2:]],
                 ["indices", "{domain}", *mc],
                 ["core", "{domain}", "--imputation", "{imputation}"],
                 ["ecm", "{domain}", "{imputation}", "--epsilon", "0.5"],
                 ["leastcore", "{domain}"],
                 ["generate", "setcover", "{setcover}", "--out", out],
                 ["generate", "vertexcover", "{vertexcover}", "--out", out]):
        code, _, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code in (0, 2, 3, 4), (argv, err)


# ---------------------------------------------------------------- JSON text

_JSON_TEXT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.sampled_from([-0.0, 1e300, float("nan"), float("-inf")]),
    lambda children: (st.lists(children, max_size=4) | st.dictionaries(st.text(), children,
                                                                        max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_TEXT)
def test_json_text_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_report_leaves_no_reference_cycle(capsys):
    argv = ["leastcore", str(DATA / "leastcore14_domain.json"), "--format", "json"]
    run(capsys, argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(capsys, argv)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == 0
