"""Command-line verbs: payload shapes, exit codes, determinism."""

import hashlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from srgkit import cli, graphcore, schemes
from srgkit.cli import TABLE1_TARGETS, main
from srgkit.graphcore import build_graph, from_graph6, to_edgelist, to_graph6


def run(capsys, *argv):
    """Invoke the CLI in-process; return (exit code, parsed stdout or None)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_family_pass(capsys):
    code, report = run(capsys, "verify", "nu:n=3,q=3")
    assert code == 0
    assert report["v"] == 63
    assert report["srg"] == {"verdict": "pass", "params": [63, 32, 16, 16]}
    assert report["drg"]["verdict"] == "pass"
    assert report["closed_form"]["verdict"] == "pass"


def test_verify_family_fail_carries_witness(capsys):
    code, report = run(capsys, "verify", "johnson:n=9,i=1")
    assert code == 1
    assert report["srg"]["verdict"] == "fail"
    assert len(report["srg"]["witness"]) == 2
    assert report["drg"]["verdict"] == "fail"


def test_verify_distance_regular_family_passes(capsys):
    code, report = run(capsys, "verify", "sp6:q=2")
    assert code == 0
    assert report["srg"]["verdict"] == "fail"
    assert report["drg"] == {
        "verdict": "pass",
        "b": [14, 12, 8],
        "c": [1, 3, 7],
    }
    assert report["closed_form"]["verdict"] == "skipped"


def test_verify_graph_file(capsys, tmp_path):
    pentagon = build_graph(range(5), lambda a, b: (a - b) % 5 in (1, 4))
    path = tmp_path / "pentagon.el"
    path.write_text(to_edgelist(pentagon))
    code, report = run(capsys, "verify", str(path))
    assert code == 0
    assert report["source"] == "file"
    assert report["srg"]["params"] == [5, 2, 0, 1]


def test_verify_refuses_an_uncertified_graph_file_past_the_pair_cap(
    capsys, tmp_path, monkeypatch
):
    """A graph file carries no certificate, so every pair would be counted:
    past the pair cap it is refused with exit 3 before any count, as a
    family spec past its budget is."""

    def never(graph):
        raise AssertionError("check_srg ran past the pair cap")

    # the verb imports check_srg from graphcore when it runs
    monkeypatch.setattr(graphcore, "check_srg", never)
    n = 8193  # one past the cap's 8,192 vertices
    path = tmp_path / "cycle.el"
    edges = "".join(f"{v} {(v + 1) % n}\n" for v in range(n))
    path.write_text(f"# vertices {n}\n{edges}")
    assert main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "error: the pair partition of 8193 points" in err


def test_verify_exit_codes(capsys):
    assert run(capsys, "verify", "nonsense:q=2")[0] == 2
    assert run(capsys, "verify", "grassmann:n=7,q=2")[0] == 3
    # --max-v raises the guard: 540 vertices rejected at 500, allowed at 600
    assert run(capsys, "verify", "nu:n=4,q=3", "--max-v", "500")[0] == 3
    assert run(capsys, "verify", "nu:n=4,q=3", "--max-v", "600")[0] == 0


@pytest.mark.parametrize("budget", ["-1", "0", "x"])
@pytest.mark.parametrize(
    "argv", [["gen", "nu:n=3,q=3", "-o", "never.g6"], ["verify", "nu:n=3,q=3"], ["table1"]]
)
def test_max_v_must_be_a_positive_integer(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-v", budget])
    assert exc.value.code == 2
    assert "argument --max-v" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, argument",
    [
        (["verify", ""], "argument target"),
        (["orbitals", ""], "argument gens"),
        (["gen", "johnson:n=7,i=1", "-o", ""], "argument -o/--output"),
    ],
    ids=["verify", "orbitals", "gen"],
)
def test_an_empty_path_is_refused_by_name(capsys, argv, argument):
    """``Path("")`` is the working directory; an empty path argument is
    refused as such, not read or written as a directory."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{argument}: needs a path, got an empty string" in err
    assert "Is a directory" not in err


@pytest.mark.parametrize(
    "spec", ["nu:n=3,q=6", "flags:q=6", "grassmann:n=6,q=6", "no:m=2,q=15,eps=+"]
)
def test_non_prime_power_q_is_an_input_error(capsys, tmp_path, spec):
    assert main(["verify", spec]) == 2
    assert "q must be a prime power" in capsys.readouterr().err
    path = tmp_path / "never.g6"
    assert main(["gen", spec, "-o", str(path)]) == 2
    assert "q must be a prime power" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("eps", ["+", "-"])
def test_orthogonal_dimension_three_is_an_input_error(capsys, eps):
    assert main(["verify", f"no:m=1,q=3,eps={eps}"]) == 2
    assert "NO needs m >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("no:m=2,q=1031,eps=+", "GF(1031) has size 1031"),
        ("nu:n=3,q=37", "GF(1369) has size 1369"),
        ("grassmann:n=7,q=8", "F_8^7 has size 2097152"),
    ],
)
def test_desk_scale_caps_are_scale_errors(capsys, tmp_path, spec, message):
    budget = "100000000000000"
    assert main(["verify", spec, "--max-v", budget]) == 3
    assert message in capsys.readouterr().err
    path = tmp_path / "never.g6"
    assert main(["gen", spec, "-o", str(path), "--max-v", budget]) == 3
    assert message in capsys.readouterr().err
    assert not path.exists()


def test_verify_unreadable_file(capsys, tmp_path):
    path = tmp_path / "junk.g6"
    path.write_text("#\nnot numbers at all\n")
    code, _ = run(capsys, "verify", str(path))
    assert code == 2


def test_verify_directory_is_an_input_error(capsys, tmp_path):
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unreadable graph file {str(tmp_path)!r}" in captured.err


def test_verify_missing_file_is_read_as_a_graph_file(capsys, tmp_path, monkeypatch):
    # a target without ':' cannot be a family spec
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "missing.g6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unreadable graph file 'missing.g6': " in captured.err
    assert "family spec" not in captured.err


@pytest.mark.parametrize(
    "verb, arg, message",
    [
        ("scheme", "1_0,2;1,1", "array entry b0 = '1_0' is not an integer"),
        ("verify", "nu:n=3,q=1_1", "parameter q needs an integer, got '1_1'"),
        ("verify", "johnson:n=1_0,i=1", "parameter n needs an integer, got '1_0'"),
        ("orbitals", "3 1\n1 2 \u0660\n", "token 3: '\u0660' is not an integer"),
    ],
    ids=["array", "spec", "johnson", "gens-arabic-zero"],
)
def test_integers_are_ascii_digits_only(capsys, tmp_path, verb, arg, message):
    """``int`` takes '1_0' and non-ASCII digits; every reader refuses them."""
    if verb == "orbitals":  # arg is the generator file's text
        path = tmp_path / "digits.gens"
        path.write_text(arg, encoding="utf-8")
        arg = str(path)
    assert main([verb, arg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("spec", ["nu:n=3,q=3,n=4", "johnson:n=7,i=1,n=8"])
def test_verify_refuses_a_repeated_spec_key(capsys, spec):
    assert main(["verify", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter n is given twice" in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("# vertices 3\n0 1\n-1 2\n", "negative vertex id"),
        ("# vertices 3\n0 1 2\n", "needs exactly two integer ids"),
        ("~~??????\n", "'~~' graph6 size form is unsupported"),
        ("A`\n", "nonzero graph6 padding bits"),
        ("~??A_\n", "graph6 size 2 written in the '~' form"),
        ("# vertices x\n0 1\n", "header '# vertices x' needs a non-negative"),
        ("# vertices -2\n0 1\n", "header '# vertices -2' needs a non-negative"),
        ("# vertices 258048\n0 1\n", "exceeds the limit of 258047 vertices"),
        ("# vertices 3\n0 1_0\n", "edge line '0 1_0' needs exactly two integer ids"),
        ("# vertices \u0663\n0 1\n", "header '# vertices \u0663' needs a non-negative"),
    ],
)
def test_verify_rejects_bad_graph_files_by_name(capsys, tmp_path, text, message):
    path = tmp_path / "bad.graph"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_graph6_round_trips(capsys, tmp_path):
    path = tmp_path / "j7.g6"
    code, _ = run(capsys, "gen", "johnson:n=7,i=1", "-o", str(path))
    assert code == 0
    g = from_graph6(path.read_text().strip())
    assert g.n == 35
    assert set(g.degrees()) == {18}


def test_gen_edgelist(capsys, tmp_path):
    path = tmp_path / "flags.el"
    code, _ = run(
        capsys, "gen", "flags:q=4", "-o", str(path), "--format", "edgelist"
    )
    assert code == 0
    assert path.read_text().startswith("# vertices 105\n")


def test_gen_exit_codes(capsys, tmp_path):
    path = tmp_path / "never.g6"
    assert run(capsys, "gen", "bogus", "-o", str(path))[0] == 2
    assert run(capsys, "gen", "grassmann:n=7,q=2", "-o", str(path))[0] == 3
    assert not path.exists()


def test_gen_to_a_missing_directory_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.g6"
    assert main(["gen", "johnson:n=7,i=1", "-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {str(path)!r}" in captured.err


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


def test_scheme_array_reports_union_criterion(capsys):
    code, report = run(capsys, "scheme", "6,4,4;1,1,3")
    assert code == 0
    assert report["relations"] == "pass"
    assert report["tensor"]["rank"] == 4
    assert report["fusions"] == [
        {"classes": [3], "params": [63, 32, 16, 16]},
        {"classes": [1, 2], "params": [63, 30, 13, 15]},
    ]


def test_scheme_array_reports_a_fusion_with_lambda_unequal_mu(capsys):
    code, report = run(capsys, "scheme", "14,12,8;1,3,7")
    assert code == 0
    assert report["fusions"][0] == {"classes": [3], "params": [135, 64, 28, 32]}


def test_scheme_array_reports_fusions_at_every_rank(capsys, monkeypatch):
    code, report = run(capsys, "scheme", "3,2;1,1")  # Petersen and complement
    assert code == 0
    assert report["tensor"]["rank"] == 3
    assert report["fusions"] == [
        {"classes": [1], "params": [10, 3, 0, 1]},
        {"classes": [2], "params": [10, 6, 3, 4]},
    ]
    assert run(capsys, "scheme", "2,1,1;1,1,1")[1]["fusions"] == []  # heptagon
    monkeypatch.setattr(schemes, "_UNION_CAP", 1)
    code, report = run(capsys, "scheme", "3,2;1,1")
    assert code == 0
    assert report["fusions"] == {
        "verdict": "skipped",
        "reason": "the class-union search of a rank-3 scheme has size 2, "
        "over the desk-scale limit of 1",
    }


def test_scheme_refuses_the_c40_tensor_before_building_it(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the recursion ran past the rank cap")

    monkeypatch.setattr(schemes, "_tensor_recursion", never)
    c40 = ",".join(["2"] + ["1"] * 19) + ";" + ",".join(["1"] * 19 + ["2"])
    assert main(["scheme", c40]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        "the intersection tensor of a rank-21 array has size 21, "
        "over the desk-scale limit of 15" in captured.err
    )


def test_scheme_exit_codes(capsys):
    assert main(["scheme", "not an array"]) == 2
    assert "array needs the form 'b0,b1,...;c1,c2,...'" in capsys.readouterr().err
    assert main(["scheme", "3;"]) == 2
    assert "array entry c1 = '' is not an integer" in capsys.readouterr().err
    assert main(["scheme", "3,x;1,1"]) == 2
    assert "array entry b1 = 'x' is not an integer" in capsys.readouterr().err
    # non-integral second valency: k_2 = 3*1/2
    assert main(["scheme", "3,1;1,2"]) == 4
    assert "infeasible array: k_2 = 3/2 is not an integer" in capsys.readouterr().err
    assert run(capsys, "scheme", "dualpolar:5")[0] == 2
    assert run(capsys, "scheme", "dualpolar:x")[0] == 2
    assert main(["scheme", "dualpolar:2"]) == 2
    assert "exponent must be one of 1/2, 1, 3/2" in capsys.readouterr().err


def test_an_infeasible_tensor_of_an_array_job_exits_4(capsys, monkeypatch):
    def infeasible(array):
        raise schemes.InfeasibleArrayError("sum_j k_j = v")

    monkeypatch.setattr(schemes, "tensor_from_array", infeasible)
    assert main(["scheme", "3,2;1,1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: infeasible array: relation sum_j k_j = v violated"
    ]


def test_scheme_accepts_the_braced_array_syntax(capsys):
    code, braced = run(capsys, "scheme", "{ 3, 2 ; 1, 1 }")
    assert code == 0
    assert braced == run(capsys, "scheme", "3,2;1,1")[1]


def test_scheme_g2_job(capsys):
    code, report = run(capsys, "scheme", "g2")
    assert code == 0
    assert report["gamma3"]["srg"] is True
    assert report["gamma3"]["params"] == [
        "q^5 + q^4 + q^3 + q^2 + q + 1",
        "q^5",
        "q^5 - q^4",
        "q^5 - q^4",
    ]
    assert report["gamma2"]["srg"] is False
    assert report["p33"] == ["q^5 - q^4"] * 3


def test_scheme_dual_polar_jobs(capsys):
    code, report = run(capsys, "scheme", "dualpolar:1")
    assert code == 0
    assert report["p33_equal"] is True
    assert report["graph_checked_qs"] == [2]
    code, report = run(capsys, "scheme", "dualpolar:1/2")
    assert code == 0
    assert report["p33_equal"] is False


def test_scheme_grassmann_job(capsys):
    code, report = run(capsys, "scheme", "grassmann")
    assert code == 0
    assert report["scan"]["all_nonzero"] is True
    assert report["scan"]["qs"][0] == 2 and report["scan"]["qs"][-1] == 16
    assert report["scan"]["ns"] == [6, 7, 8, 9, 10, 11, 12]
    assert len(report["alphas"]) == len(report["betas"]) == 3


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def test_table1_targets_cover_the_required_rows():
    expected = {params for _, params in TABLE1_TARGETS}
    assert len(TABLE1_TARGETS) >= 10
    assert (35, 18, 9, 9) in expected
    assert (120, 63, 30, 36) in expected
    assert (105, 32, 4, 12) in expected


def test_table1_runs_clean(capsys):
    code, report = run(capsys, "table1")
    assert code == 0
    assert report["all_pass"] is True
    assert len(report["targets"]) == len(TABLE1_TARGETS)
    for row in report["targets"]:
        assert row["verdict"] == "pass"
        assert row["srg"]["params"] == row["expected"]
    assert "seconds" not in keys_of(report)


def test_table1_with_every_row_skipped_is_not_a_pass(capsys):
    code, report = run(capsys, "table1", "--max-v", "10")
    assert code == 3
    assert report["all_pass"] is False
    assert {row["verdict"] for row in report["targets"]} == {"skipped"}


def test_table1_failure_outranks_a_skipped_row(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "TABLE1_TARGETS",
        (("johnson:n=7,i=1", (35, 18, 9, 10)), ("nu:n=4,q=3", (540, 224, 88, 96))),
    )
    code, report = run(capsys, "table1", "--max-v", "100")
    assert code == 1
    assert report["all_pass"] is False
    assert [row["verdict"] for row in report["targets"]] == ["fail", "skipped"]


# ---------------------------------------------------------------------------
# orbitals
# ---------------------------------------------------------------------------


def test_orbitals_verb_on_saved_generators(capsys, tmp_path):
    from srgkit.orbitals import PermGroupAction, save_gens

    pentagon = PermGroupAction(5, ((1, 2, 3, 4, 0),))
    path = tmp_path / "z5.gens"
    save_gens(pentagon, path)
    code, report = run(capsys, "orbitals", str(path))
    assert code == 0
    assert report["degree"] == 5
    assert report["rank"] == 5
    # the four non-diagonal classes pair up 1<->4 and 2<->3
    pairings = {entry["class"]: entry["self_paired"] for entry in report["classes"]}
    assert pairings == {1: False, 2: False, 3: False, 4: False}
    assert all(
        entry["srg"]["verdict"] == "skipped" for entry in report["classes"]
    )


def test_orbitals_verb_reports_srg_classes(capsys, tmp_path):
    from srgkit.orbitals import PermGroupAction, save_gens

    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def induced(perm):
        return tuple(
            index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs
        )

    action = PermGroupAction(
        10, (induced((1, 2, 3, 4, 0)), induced((1, 2, 0, 3, 4)))
    )
    path = tmp_path / "pairs.gens"
    save_gens(action, path)
    code, report = run(capsys, "orbitals", str(path))
    assert code == 0
    assert report["rank"] == 3
    verdicts = {
        entry["length"]: entry["srg"]["params"] for entry in report["classes"]
    }
    assert verdicts == {3: [10, 3, 0, 1], 6: [10, 6, 3, 4]}


def test_orbitals_exit_code_on_missing_file(capsys):
    assert run(capsys, "orbitals", "/nonexistent/file.gens")[0] == 2


def cyclic_gens(n: int) -> str:
    return f"{n} 1\n" + " ".join(str((x + 1) % n) for x in range(n)) + "\n"


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("3 1\n1 0 2\n", 2, "action is not transitive"),
        ("0 0\n", 2, "degree 0 is below 1"),
        ("3 1\n0 1 extra\n", 2, "line 2, token 3: 'extra' is not an integer"),
        (cyclic_gens(256), 2, "more than 255 pair orbits"),
        (cyclic_gens(8193), 3, "the pair partition of 8193 points"),
        ("3 1\n1 2 0\n1 0 2\n", 2, "line 3: a generator line beyond the 1"),
        ("3 1\n1 2\n", 2, "line 2: 2 entries, expected the degree 3"),
        ("3 2\n1 2 0\n\n1 0 2\n", 2, "line 3: 0 entries, expected the degree 3"),
    ],
    ids=[
        "not-transitive",
        "degree-0",
        "bad-token",
        "cyclic-256",
        "cyclic-8193",
        "extra-generator",
        "short-generator",
        "blank-generator",
    ],
)
def test_orbitals_rejects_bad_generator_files(capsys, tmp_path, text, code, message):
    path = tmp_path / "bad.gens"
    path.write_text(text)
    assert main(["orbitals", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_orbitals_payload_does_not_depend_on_the_generator_list(capsys, tmp_path):
    """Reversed generators, plus the identity and a repeated generator,
    generate the same group, so the payload is the same bytes."""
    from srgkit.orbitals import PermGroupAction, load_gens, save_gens

    source = ROOT / "src/srgkit/data/psl2_8_sq6.gens"
    action = load_gens(source)
    gens = action.generators
    listed = gens[::-1] + (tuple(range(action.degree)), gens[1])
    save_gens(PermGroupAction(action.degree, listed), tmp_path / "listed.gens")
    outputs = []
    for path in (source, tmp_path / "listed.gens"):
        assert main(["orbitals", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["rank"] == 4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def keys_of(payload):
    """Every dict key anywhere in a parsed payload."""
    if isinstance(payload, dict):
        return set(payload).union(*map(keys_of, payload.values()))
    if isinstance(payload, list):
        return set().union(*map(keys_of, payload))
    return set()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "nu:n=3,q=3"),
        ("scheme", "6,4,4;1,1,3"),
        ("scheme", "g2"),
        ("orbitals", "z5.gens"),
        ("gen", "johnson:n=7,i=1", "-o", "j7.g6"),
    ],
    ids=["verify", "scheme-array", "scheme-g2", "orbitals", "gen"],
)
def test_stdout_is_byte_identical_across_runs(capsys, tmp_path, argv):
    """Timings go to stderr only, so two runs print the same bytes (and
    ``gen`` writes the same file)."""
    from srgkit.orbitals import PermGroupAction, save_gens

    save_gens(PermGroupAction(5, ((1, 2, 3, 4, 0),)), tmp_path / "z5.gens")
    argv = [str(tmp_path / a) if a.endswith((".gens", ".g6")) else a for a in argv]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert re.search(r" in \d+\.\d{3}s\n$", captured.err)  # the timing
        written = (tmp_path / "j7.g6").read_bytes() if argv[0] == "gen" else b""
        outputs.append((captured.out, written))
    assert outputs[0] == outputs[1]
    out, written = outputs[0]
    if argv[0] == "gen":
        assert out == "" and written
    else:
        assert "seconds" not in keys_of(json.loads(out))


# ---------------------------------------------------------------------------
# modules each verb compiles
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def modules_loaded(*argv: str) -> list[str]:
    """The modules a fresh interpreter holds after ``main(argv)``, which
    must exit 0; with no arguments, after ``import srgkit.cli`` alone."""
    code = "import sys\nimport srgkit.cli\n"
    if argv:
        code += (
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert srgkit.cli.main({list(argv)!r}) == 0\n"
        )
    code += "print(*sorted(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", code]
    run = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return run.stdout.split()


# dataclasses and the inspect it imports: each start would compile the records'
# methods
NEVER_LOADED = ("dataclasses", "inspect")


# the layers a scheme job compiles, but for dualpolar:1's graph check
SCHEME_LAYERS = {"srgkit", "srgkit.audit", "srgkit.base", "srgkit.cli", "srgkit.schemes"}


def srgkit_modules(loaded: list[str]) -> set[str]:
    return {name for name in loaded if name.partition(".")[0] == "srgkit"}


def test_import_srgkit_cli_compiles_only_the_base_layer():
    loaded = modules_loaded()
    assert srgkit_modules(loaded) == {"srgkit", "srgkit.base", "srgkit.cli"}
    assert not {"fractions", *NEVER_LOADED} & set(loaded)


@pytest.mark.parametrize(
    "job", ["g2", "grassmann", "dualpolar:1/2", "dualpolar:3/2", "3,2;1,1"]
)
def test_a_scheme_job_compiles_no_geometry(job):
    loaded = modules_loaded("scheme", job)
    assert "srgkit.schemes" in loaded
    for module in ("srgkit.families", "srgkit.geometry", "srgkit.orbitals"):
        assert module not in loaded
    # nor the field and graph layers: the scheme layer stands on srgkit.base
    for module in ("srgkit.gf", "srgkit.graphcore"):
        assert module not in loaded
    assert srgkit_modules(loaded) == SCHEME_LAYERS
    assert not set(NEVER_LOADED) & set(loaded)


def test_verify_and_orbitals_compile_no_family(tmp_path):
    petersen = build_graph(
        [frozenset(pair) for pair in itertools.combinations(range(5), 2)],
        lambda a, b: not a & b,
    )
    path = tmp_path / "petersen.g6"
    path.write_text(to_graph6(petersen) + "\n")
    gens = str(ROOT / "src/srgkit/data/psl2_8_sq6.gens")
    layers = {"srgkit", "srgkit.base", "srgkit.cli", "srgkit.graphcore"}
    cases = ((["verify", str(path)], set()), (["orbitals", gens], {"srgkit.orbitals"}))
    for argv, own in cases:
        loaded = modules_loaded(*argv)
        assert "srgkit.graphcore" in loaded
        for module in ("srgkit.families", "srgkit.geometry", "srgkit.schemes"):
            assert module not in loaded
        assert "srgkit.gf" not in loaded  # psl28_action alone builds a field
        assert srgkit_modules(loaded) == layers | own
        assert not {"fractions", *NEVER_LOADED} & set(loaded)


def test_gen_of_a_grassmann_graph_compiles_no_scheme_layer(tmp_path):
    loaded = modules_loaded("gen", "grassmann:n=6,q=2", "-o", str(tmp_path / "g.g6"))
    assert {"srgkit.families", "srgkit.gf", "srgkit.graphcore"} <= set(loaded)
    assert not {"srgkit.schemes", "srgkit.audit", *NEVER_LOADED} & set(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "johnson:n=7,i=1", "-o", "{tmp}/j7.g6"],
        ["verify", "johnson:n=7,i=1"],
        ["table1"],
    ],
    ids=["gen", "verify-family", "table1"],
)
def test_the_family_verbs_load_no_dataclasses(tmp_path, argv):
    loaded = modules_loaded(*(arg.format(tmp=tmp_path) for arg in argv))
    assert "srgkit.families" in loaded
    assert not set(NEVER_LOADED) & set(loaded)


# ---------------------------------------------------------------------------
# payloads recorded by the benchmark
# ---------------------------------------------------------------------------

EXPECTED = ROOT / "perfbench" / "expected"

PAYLOAD_CASES = [
    ("table1", "table1", ["table1"]),
    (
        "verify",
        "orbitals psl2_8_sq6",
        ["orbitals", str(ROOT / "src/srgkit/data/psl2_8_sq6.gens")],
    ),
    ("verify", "gen grassmann:n=6,q=2", ["gen", "grassmann:n=6,q=2", "-o"]),
    ("symbolic", "scheme grassmann", ["scheme", "grassmann"]),
    ("symbolic", "scheme g2", ["scheme", "g2"]),
    ("symbolic", "scheme dualpolar:1/2", ["scheme", "dualpolar:1/2"]),
    ("symbolic", "scheme dualpolar:1", ["scheme", "dualpolar:1"]),
    ("symbolic", "scheme dualpolar:3/2", ["scheme", "dualpolar:3/2"]),
]


@pytest.mark.parametrize(
    "workload, key, argv", PAYLOAD_CASES, ids=[key for _, key, _ in PAYLOAD_CASES]
)
def test_payload_matches_the_benchmark_expectation(
    capsys, tmp_path, workload, key, argv
):
    """The benchmark's recorded payloads are exactly what the commands
    print (for ``gen``: the size and SHA-256 of the file)."""
    expected = json.loads((EXPECTED / f"{workload}.json").read_text())[key]
    if argv[0] == "gen":
        path = tmp_path / "graph.g6"
        assert main([*argv, str(path)]) == 0
        data = path.read_bytes()
        got = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    else:
        code, got = run(capsys, *argv)
        assert code == 0
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_classes_payload_matches_the_benchmark_expectation(monkeypatch):
    """The ``classes`` workload's recorded payload is exactly what its job
    computes through the public API, byte for byte once serialised."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "perfbench" / "classes_job.py"
    spec = importlib.util.spec_from_file_location("perfbench_classes_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    expected = json.loads((EXPECTED / "classes.json").read_text())["classes"]
    got = json.loads(json.dumps(job.run()))
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
