"""Command-line surface: build, verify, and audit the graph families.

Verbs
-----
gen      build a family graph and write it to a file (graph6 or edge list)
verify   brute-force check a family or a graph file, report JSON to stdout
scheme   intersection-number tensor of an array, or a symbolic derivation
table1   regression run over the whole desk-scale target matrix
orbitals load a permutation-generator file and report its pair classes

Each verb returns its exit code, its payload (or None) and a one-line
summary; :func:`main` alone times the verb, writes the payload to stdout as
JSON with sorted keys and the summary with the elapsed time to stderr.  So
stdout carries nothing that varies between runs.  Rationals appear as
``num/den`` strings.  Exit codes: 0 pass, 1 verification failure, 2 input
error, 3 scale guard (or a ``table1`` row skipped by it), 4 infeasible
array.  A verb refuses its input by raising :class:`_Refusal` where it
detects the fault (``scheme`` turns an ``InfeasibleArrayError`` into one);
``main`` prints that message or a ``ScaleGuardError`` as one ``error:``
line and writes no payload.
"""

from __future__ import annotations

# The one srgkit layer every verb runs (base) comes before the standard
# modules: without cached bytecode each layer is compiled at every start,
# and compiling it while the heap is still small keeps a command's peak
# memory lower.  Each verb imports the other layers (graphcore, families,
# orbitals, schemes) where it runs them, so a command compiles only the
# layers it uses: a scheme job compiles neither gf nor graphcore.
from .base import DEFAULT_MAX_V, IntersectionArray, ScaleGuardError
from .base import _array_entries, _strict_int

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .families import FamilyId
    from .graphcore import Graph, RegularityFailure, SrgParams

__all__ = ["main"]

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_SCALE = 3
EXIT_INFEASIBLE = 4


class _Refusal(Exception):
    """A verb declines its input: exit with ``code``, print the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _family(spec: str) -> FamilyId:
    from .families import parse_family_spec

    try:
        return parse_family_spec(spec)
    except ValueError as e:
        raise _Refusal(EXIT_INPUT, str(e)) from None


def _failure_verdict(failure: RegularityFailure) -> dict:
    verdict: dict = {"verdict": "fail", "reason": failure.reason}
    if failure.witness is not None:
        verdict["witness"] = list(failure.witness)
    if failure.expected is not None:
        verdict["expected"] = failure.expected
        verdict["found"] = failure.found
    return verdict


def _srg_verdict(result: SrgParams | RegularityFailure) -> dict:
    from .graphcore import SrgParams

    if isinstance(result, SrgParams):
        return {"verdict": "pass", "params": list(result.as_tuple())}
    return _failure_verdict(result)


def _drg_verdict(result: IntersectionArray | RegularityFailure) -> dict:
    if isinstance(result, IntersectionArray):
        return {"verdict": "pass", "b": list(result.b), "c": list(result.c)}
    return _failure_verdict(result)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> tuple[int, None, str]:
    from .families import build_family
    from .graphcore import to_edgelist, to_graph6

    fid = _family(args.family)
    graph = build_family(fid, max_v=args.max_v)
    text = to_graph6(graph) + "\n" if args.format == "graph6" else to_edgelist(graph)
    try:
        Path(args.output).write_text(text)
    except OSError as e:
        raise _Refusal(EXIT_INPUT, f"cannot write {args.output!r}: {e}") from None
    summary = f"gen {fid}: wrote {graph.n} vertices to {args.output} ({args.format})"
    return EXIT_PASS, None, summary


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _load_graph_file(name: str) -> Graph:
    from .graphcore import from_edgelist, from_graph6

    try:
        text = Path(name).read_text()
        if text.lstrip().startswith("#"):
            return from_edgelist(text)
        return from_graph6(text.strip())
    except (OSError, ValueError) as e:
        raise _Refusal(EXIT_INPUT, f"unreadable graph file {name!r}: {e}") from None


def _closed_form_verdict(
    fid: FamilyId | None, srg: SrgParams | RegularityFailure
) -> dict:
    if fid is None:
        return {"verdict": "skipped", "reason": "input was a graph file"}
    from .families import params_closed_form
    from .graphcore import SrgParams

    try:
        expected = params_closed_form(fid)
    except ValueError:
        return {
            "verdict": "skipped",
            "reason": "family has no closed-form parameters",
        }
    if not isinstance(srg, SrgParams):
        return {
            "verdict": "fail",
            "reason": "graph is not strongly regular",
            "expected": list(expected.as_tuple()),
        }
    if srg != expected:
        return {
            "verdict": "fail",
            "reason": "parameters differ from the closed form",
            "expected": list(expected.as_tuple()),
            "found": list(srg.as_tuple()),
        }
    return {"verdict": "pass", "params": list(expected.as_tuple())}


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .graphcore import SrgParams, _check_pair_cap, check_drg, check_srg

    fid: FamilyId | None = None
    if Path(args.target).exists() or ":" not in args.target:  # specs have a colon
        graph = _load_graph_file(args.target)
        name = args.target
        _check_pair_cap(graph.n)  # a file carries no certificate: every pair counts
    else:
        from .families import build_family

        fid = _family(args.target)
        graph = build_family(fid, max_v=args.max_v)
        name = str(fid)
    srg = check_srg(graph)
    drg = check_drg(graph)
    closed = _closed_form_verdict(fid, srg)
    report = {
        "target": name,
        "source": "file" if fid is None else "family",
        "v": graph.n,
        "srg": _srg_verdict(srg),
        "drg": _drg_verdict(drg),
        "closed_form": closed,
    }
    ok = (
        isinstance(srg, SrgParams) or isinstance(drg, IntersectionArray)
    ) and closed["verdict"] != "fail"
    code = EXIT_PASS if ok else EXIT_VERIFICATION
    return code, report, f"verify {name}: {'pass' if ok else 'fail'}"


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------


def _parse_array(text: str) -> IntersectionArray:
    try:
        b, c = _array_entries(text)
    except ValueError as e:
        raise _Refusal(EXIT_INPUT, str(e)) from None
    # array-shape violations (positivity, c_1 = 1, integrality of the
    # valencies) are infeasibility, not input errors
    try:
        return IntersectionArray(b, c)
    except ValueError as e:
        raise _Refusal(EXIT_INFEASIBLE, f"infeasible array: {e}") from None


def _dual_polar_exponent(job: str) -> Fraction:
    from fractions import Fraction

    from .schemes import _DUAL_POLAR_EXPONENTS

    try:
        e = Fraction(job.partition(":")[2])
    except (ValueError, ZeroDivisionError):
        raise _Refusal(EXIT_INPUT, f"bad dual-polar exponent in {job!r}") from None
    if e not in _DUAL_POLAR_EXPONENTS:
        allowed = ", ".join(map(str, _DUAL_POLAR_EXPONENTS))
        raise _Refusal(EXIT_INPUT, f"dual-polar exponent must be one of {allowed}")
    return e


def _scheme_array_report(array: IntersectionArray) -> dict:
    from .schemes import fraction_json, srg_fusions, tensor_from_array, tensor_to_json

    tensor = tensor_from_array(array)
    report = {
        "job": "array",
        "array": {"b": list(array.b), "c": list(array.c)},
        "tensor": tensor_to_json(tensor),
        "relations": "pass",
    }
    try:
        report["fusions"] = [
            {"classes": list(union), "params": [fraction_json(x) for x in params]}
            for union, params in srg_fusions(tensor)
        ]
    except ScaleGuardError as e:
        report["fusions"] = {"verdict": "skipped", "reason": str(e)}
    return report


def _scheme_g2_report() -> dict:
    from .schemes import g2_symbolic, ratfunc_str

    result = g2_symbolic()
    gamma3_srg, gamma3_values = result.gamma3_criterion
    gamma2_srg, gamma2_values = result.gamma2_criterion
    return {
        "job": "g2",
        "gamma3": {
            "srg": gamma3_srg,
            "values": [ratfunc_str(v) for v in gamma3_values],
            "params": [ratfunc_str(p) for p in result.params],
        },
        "gamma2": {
            "srg": gamma2_srg,
            "values": [ratfunc_str(v) for v in gamma2_values],
        },
        "p33": [ratfunc_str(v) for v in result.p33],
        "p22": [ratfunc_str(v) for v in result.p22],
        "instantiated_qs": list(result.instantiated_qs),
    }


def _scheme_dual_polar_report(e: Fraction) -> dict:
    from .schemes import dual_polar_symbolic, fraction_json, ratfunc_str

    graph_qs = (2,) if e == 1 else ()
    result = dual_polar_symbolic(e, graph_qs=graph_qs)
    return {
        "job": "dualpolar",
        "e": fraction_json(e),
        "displayed": {
            key: ratfunc_str(value) for key, value in sorted(result.displayed.items())
        },
        "p33_equal": result.p33_equal,
        "p22_difference_values": [
            [q, fraction_json(v)] for q, v in result.p22_difference_values
        ],
        "graph_checked_qs": list(result.graph_checked_qs),
    }


def _scheme_grassmann_report() -> dict:
    from .schemes import grassmann_f2, ratfunc_str

    result = grassmann_f2()
    return {
        "job": "grassmann",
        "alphas": [ratfunc_str(a) for a in result.alphas],
        "betas": [ratfunc_str(b) for b in result.betas],
        "A": ratfunc_str(result.A),
        "B": ratfunc_str(result.B),
        "C": ratfunc_str(result.C),
        "scan": {
            "qs": list(result.scan_qs),
            "ns": list(result.scan_ns),
            "all_nonzero": result.scan_all_nonzero,
        },
        "positivity": {
            str(q): list(flags) for q, flags in sorted(result.positivity.items())
        },
    }


def cmd_scheme(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .schemes import InfeasibleArrayError

    job = args.job
    try:
        if job == "g2":
            report = _scheme_g2_report()
        elif job == "grassmann":
            report = _scheme_grassmann_report()
        elif job.startswith("dualpolar:"):
            report = _scheme_dual_polar_report(_dual_polar_exponent(job))
        else:
            report = _scheme_array_report(_parse_array(job))
    except InfeasibleArrayError as e:  # its message begins "infeasible array"
        raise _Refusal(EXIT_INFEASIBLE, str(e)) from None
    return EXIT_PASS, report, f"scheme {job}: done"


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

# Desk-scale regression targets: family spec -> expected srg parameters.
TABLE1_TARGETS: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("johnson:n=7,i=1", (35, 18, 9, 9)),
    ("johnson:n=10,i=1", (120, 63, 30, 36)),
    ("flags:q=4", (105, 32, 4, 12)),
    ("hamming:d=4,i=2", (64, 27, 10, 12)),
    ("nu:n=3,q=3", (63, 32, 16, 16)),
    ("nu:n=3,q=4", (208, 75, 30, 25)),
    ("nu:n=4,q=3", (540, 224, 88, 96)),
    ("no:m=2,q=5,eps=+", (325, 144, 68, 60)),
    ("no:m=2,q=5,eps=-", (300, 104, 28, 40)),
    ("polarC:O8+,q=2", (135, 64, 28, 32)),
    ("polarC:O7,q=2", (63, 32, 16, 16)),
    ("sp6d3:q=2", (135, 64, 28, 32)),
)


def cmd_table1(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .families import build_family, parse_family_spec
    from .graphcore import SrgParams, check_srg

    rows = []
    for spec, expected in TABLE1_TARGETS:
        row: dict = {"family": spec, "expected": list(expected)}
        try:
            graph = build_family(parse_family_spec(spec), max_v=args.max_v)
        except ScaleGuardError as e:
            row.update(verdict="skipped", reason=str(e))
        else:
            srg = check_srg(graph)
            ok = isinstance(srg, SrgParams) and srg.as_tuple() == expected
            verdict = "pass" if ok else "fail"
            row.update(v=graph.n, srg=_srg_verdict(srg), verdict=verdict)
        rows.append(row)
    verdicts = [row["verdict"] for row in rows]
    # a skipped row verified nothing, so it is not a pass
    if "fail" in verdicts:
        code = EXIT_VERIFICATION
    elif "skipped" in verdicts:
        code = EXIT_SCALE
    else:
        code = EXIT_PASS
    tally = (f"{verdicts.count(v)} {v}" for v in ("pass", "fail", "skipped"))
    report = {"targets": rows, "all_pass": code == EXIT_PASS}
    return code, report, "table1: " + ", ".join(tally)


# ---------------------------------------------------------------------------
# orbitals
# ---------------------------------------------------------------------------


def cmd_orbitals(args: argparse.Namespace) -> tuple[int, dict, str]:
    from .graphcore import check_srg
    from .orbitals import compute_orbitals, load_gens, orbital_graph

    try:
        action = load_gens(args.gens)
    except (OSError, ValueError) as e:
        raise _Refusal(
            EXIT_INPUT, f"cannot load generators from {args.gens!r}: {e}"
        ) from None
    try:
        partition = compute_orbitals(action)
    except ScaleGuardError:  # before ValueError, its base class; main maps it
        raise
    except ValueError as e:  # not transitive, or over 255 pair orbits
        raise _Refusal(EXIT_INPUT, f"{args.gens!r}: {e}") from None
    classes = []
    for c in range(1, partition.rank):
        entry: dict = {
            "class": c,
            "length": partition.suborbit_lengths[c],
            "self_paired": partition.is_self_paired(c),
        }
        if partition.is_self_paired(c):
            entry["srg"] = _srg_verdict(check_srg(orbital_graph(partition, c)))
        else:
            entry["srg"] = {
                "verdict": "skipped",
                "reason": "class is not self-paired",
            }
        classes.append(entry)
    report = {
        "degree": partition.degree,
        "rank": partition.rank,
        "suborbit_lengths": list(partition.suborbit_lengths),
        "paired": list(partition.paired),
        "classes": classes,
    }
    summary = f"orbitals {args.gens}: degree {partition.degree}, rank {partition.rank}"
    return EXIT_PASS, report, summary


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _vertex_budget(text: str) -> int:
    """A ``--max-v`` value: an integer of at least 1, else argparse exits 2."""
    value = _strict_int(text)  # a ValueError exits 2 as well
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs a budget of at least 1, got {value}")
    return value


def _path(text: str) -> str:
    """A path argument: a non-empty string, else argparse exits 2.  An
    empty path would name the working directory, since ``Path("")`` is
    ``.``."""
    if not text:
        raise argparse.ArgumentTypeError("needs a path, got an empty string")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgkit",
        description="Build and verify strongly regular graph families "
        "with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build a family graph and write it to a file")
    gen.add_argument("family", help="family spec, e.g. 'nu:n=3,q=3'")
    gen.add_argument(
        "-o", "--output", type=_path, required=True, help="output path"
    )
    gen.add_argument(
        "--format", choices=("graph6", "edgelist"), default="graph6"
    )
    gen.add_argument("--max-v", type=_vertex_budget, default=DEFAULT_MAX_V)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser(
        "verify", help="brute-force check a family spec or graph file"
    )
    verify.add_argument(
        "target", type=_path, help="family spec or path to a graph file"
    )
    verify.add_argument("--max-v", type=_vertex_budget, default=DEFAULT_MAX_V)
    verify.set_defaults(func=cmd_verify)

    scheme = sub.add_parser(
        "scheme",
        help="tensor of an intersection array 'b0,b1,b2;c1,c2,c3', or a "
        "symbolic job: g2, dualpolar:<e>, grassmann",
    )
    scheme.add_argument("job")
    scheme.set_defaults(func=cmd_scheme)

    table1 = sub.add_parser(
        "table1", help="regression run over all desk-scale targets"
    )
    table1.add_argument("--max-v", type=_vertex_budget, default=DEFAULT_MAX_V)
    table1.set_defaults(func=cmd_table1)

    orbitals = sub.add_parser(
        "orbitals", help="pair classes of a permutation-generator file"
    )
    orbitals.add_argument("gens", type=_path, help="path to a .gens file")
    orbitals.set_defaults(func=cmd_orbitals)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, payload, summary = args.func(args)
    except _Refusal as e:
        code, summary = e.code, f"error: {e}"
    except ScaleGuardError as e:
        code, summary = EXIT_SCALE, f"error: {e}"
    else:
        if payload is not None:
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        summary += f" in {time.perf_counter() - started:.3f}s"
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
