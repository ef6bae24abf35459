"""Command-line interface.

Every subcommand supports ``--format json`` for machine-readable output with
a stable schema; identical invocations produce byte-identical output.  Exit
status is 0 only when no violations or errors occurred (an undetermined
adjustment entry is reported, not treated as an error).

Only the standard library, ``core`` and ``crystal`` are imported here; every
other handler imports its modules when it runs, and ``json`` is imported
only for ``--format json``, so a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    as_multicharge,
    check_component_count,
    check_residues,
    degree_parity,
    format_multipartition,
    parse_multipartition,
    parse_residues,
)
# Imported at module level on purpose: the traced replay of the benchmark
# (perfbench/replay.py) finds `sys.modules["qspecht.crystal"]` loaded, wraps
# `restricted_multipartitions` at this binding for its span, and counts the
# closure's calls of `crystal.add_good_node` as `crystal.add_good_calls`.
from .crystal import restricted_multipartitions


class UsageError(Exception):
    pass


def _parse_charge(args):
    try:
        return as_multicharge(parse_residues(args.charge))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_shape(args):
    charge = _parse_charge(args)
    try:
        lam = parse_multipartition(args.shape)
        check_component_count(lam, charge)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return lam, charge


def _check_nonnegative(value: int | None, flag: str) -> None:
    if value is not None and value < 0:
        raise UsageError(f"{flag} must be nonnegative, got {value}")


def _emit(payload: dict | None, text_lines: list[str], fmt: str) -> None:
    """Print the payload as JSON, or else the text lines in one write.

    A reader that closes the pipe early (``| head``) ends the output, not the
    command: stdout is pointed at the null device, so nothing more is
    printed and the exit status stays the command's own.
    """
    try:
        if fmt == "json":
            import json

            print(json.dumps(payload, indent=2, sort_keys=True))
        elif text_lines:
            sys.stdout.write("\n".join(text_lines) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_qdim(args) -> int:
    from .specht import qdim_specht

    lam, charge = _parse_shape(args)
    poly = qdim_specht(lam, charge)
    payload = {
        "lambda": format_multipartition(lam),
        "charge": list(charge),
        "parity": degree_parity(lam, charge),
        "qdim": poly.to_pairs(),
    }
    _emit(payload, [str(poly)], args.format)
    return 0


def _cmd_truncate(args) -> int:
    from .specht import qdim_truncation

    lam, charge = _parse_shape(args)
    try:
        residues = parse_residues(args.residues)
        check_residues(lam, residues)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    poly = qdim_truncation(lam, charge, residues)
    payload = {
        "lambda": format_multipartition(lam),
        "charge": list(charge),
        "residues": list(residues),
        "qdim": poly.to_pairs(),
    }
    _emit(payload, [str(poly)], args.format)
    return 0


def _cmd_tableaux(args) -> int:
    from .tableaux import residue_sequence, standard_tableaux_with_degrees

    lam, charge = _parse_shape(args)
    try:
        wanted = None if args.residues is None else parse_residues(args.residues)
        found = standard_tableaux_with_degrees(lam, charge, wanted)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    listing = [(t, deg, residue_sequence(t, charge)) for t, deg in found]
    payload = {
        "lambda": format_multipartition(lam),
        "charge": list(charge),
        "count": len(listing),
        "tableaux": [
            dict(t.to_json(), degree=deg, residues=list(seq))
            for t, deg, seq in listing
        ],
    }
    lines = [f"count: {len(listing)}"]
    for t, deg, seq in listing:
        lines.append(
            f"{t.compact()}  degree={deg}  residues={','.join(map(str, seq))}"
        )
    _emit(payload, lines, args.format)
    return 0


def _report_output(report, fmt: str) -> int:
    lines = [
        f"check: {report.check}",
        f"parameters: {report.parameters}",
        f"checked: {report.checked}",
    ]
    lines += [f"violation: {v}" for v in report.violations]
    lines += [f"note: {n}" for n in report.notes]
    lines.append("result: ok" if report.ok else "result: FAILED")
    _emit(report.to_json(), lines, fmt)
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    from .specht import verify_hecke_even, verify_row_degree_parity, verify_specht_parity

    charge = _parse_charge(args)
    _check_nonnegative(args.d, "--d")
    if args.what == "parity":
        report = verify_specht_parity(args.d, charge)
    elif args.what == "row-degree":
        report = verify_row_degree_parity(args.d, charge)
    else:
        report = verify_hecke_even(args.d, charge)
    return _report_output(report, args.format)


def _cmd_restricted(args) -> int:
    charge = _parse_charge(args)
    _check_nonnegative(args.d, "--d")
    # listed by prefix (every component but the last): the sorted prefixes,
    # each followed by its sorted last components, are the sorted set
    groups: dict = {}
    for lam in restricted_multipartitions(args.d, charge):
        groups.setdefault(lam[:-1], []).append(lam[-1])
    # each distinct component is formatted once, as a shape of one component
    comps = set().union(*groups, *groups.values())
    text = {comp: format_multipartition((comp,)) for comp in comps}
    names = []
    for prefix in sorted(groups):
        head = "".join([text[comp] + "|" for comp in prefix])
        names += [head + text[comp] for comp in sorted(groups[prefix])]
    payload = {"d": args.d, "charge": list(charge), "restricted": names}
    _emit(payload, [f"count: {len(names)}"] + names, args.format)
    return 0


def _cmd_llt(args) -> int:
    from .fock import InternalConsistencyError, decomposition_matrix, simple_qdims

    charge = _parse_charge(args)
    if len(charge) != 1:
        raise UsageError("the canonical-basis computation is level-1 only")
    _check_nonnegative(args.d, "--d")
    matrix = decomposition_matrix(args.d, charge)
    # violation lines name a shape (lam,) by its one partition lam
    violations = []
    try:  # simple_qdims refuses a solved simple that is negative or not bar-symmetric
        simples = simple_qdims(matrix, charge)
    except InternalConsistencyError as err:
        simples = {}
        violations.append(f"simple qdims: {err}")
    parity = {lam: degree_parity(lam, charge) for lam in (*matrix.rows, *matrix.cols)}
    cells = matrix.nonzero_cells()  # a zero entry is pure of either parity
    for r, c, entry in cells:
        lam, mu = matrix.rows[r], matrix.cols[c]
        if not entry.is_pure_parity((parity[lam] + parity[mu]) % 2):
            violations.append(f"entry ({lam[0]}, {mu[0]}) = {entry} impure")
    for mu, poly in simples.items():
        if not poly.is_pure_parity(parity[mu]):
            violations.append(f"simple qdim for {mu[0]} impure: {poly}")
    code = 0 if not violations else 1
    cols = [format_multipartition(mu) for mu in matrix.cols]

    if args.format == "json":
        payload = {
            "d": args.d,
            "charge": list(charge),
            "matrix": matrix.to_json(),
            "simples": {
                name: simples[mu].to_pairs() for name, mu in zip(cols, matrix.cols) if mu in simples
            },
            "parity_violations": violations,
        }
        _emit(payload, [], args.format)
        return code

    rows = [format_multipartition(lam) for lam in matrix.rows]
    table = [["0"] * len(cols) for _ in rows]
    widths = [len(name) for name in cols]
    for r, c, entry in cells:
        text = table[r][c] = str(entry)
        widths[c] = max(widths[c], len(text))
    if args.format == "csv":
        lines = ["lambda," + ",".join(f'"{name}"' for name in cols)]
        for name, row in zip(rows, table):
            lines.append(f'"{name}",' + ",".join(f'"{text}"' for text in row))
        _emit(None, lines, args.format)
        return code

    lines = [f"decomposition matrix for d={args.d} (rows x cols = "
             f"{len(rows)} x {len(cols)})"]
    label_width = max((len(name) for name in rows), default=1)
    header = "  ".join(name.rjust(w) for name, w in zip(cols, widths))
    lines.append(" " * label_width + "  " + header)
    for name, row in zip(rows, table):
        texts = "  ".join(text.rjust(w) for text, w in zip(row, widths))
        lines.append(f"{name.ljust(label_width)}  {texts}")
    lines.append("simple graded dimensions:")
    for name, mu in zip(cols, matrix.cols):
        if mu in simples:
            lines.append(f"  D({name}) = {simples[mu]}")
    lines += [f"violation: {v}" for v in violations]
    _emit(None, lines, args.format)
    return code


def _cmd_adjustment(args) -> int:
    from . import adjustment as adj

    charge = _parse_charge(args)
    if len(charge) != 1:
        raise UsageError("the published adjustment evidence is level-1 only")
    reports = [adj.evidence_report(ev, charge) for ev in adj.published_evidence()]
    payload = {"charge": list(charge), "entries": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        ev = r.evidence
        lines.append(
            f"lambda={','.join(map(str, ev.lam))}  mu={','.join(map(str, ev.mu))}  "
            f"a(1)={ev.ungraded_value}  p={ev.p}"
        )
        if r.tableau_count is not None:
            lines.append(f"  tableaux with the column residue sequence: {r.tableau_count}")
            lines.append(f"  degrees: {list(r.degrees)}")
        lines.append(f"  candidates: {[str(f) for f in r.candidates]}")
        lines.append(
            f"  pinned: {r.pinned}" if r.pinned is not None else f"  {r.note}"
        )
    _emit(payload, lines, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspecht",
        description="Exact graded-dimension combinatorics for cyclotomic "
        "KLR/Hecke algebras in quantum characteristic 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, fmt=("text", "json")):
        p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--charge", default="0", help="comma-separated residues")

    p = sub.add_parser("qdim", help="graded dimension of a Specht module")
    p.add_argument("--lambda", dest="shape", required=True)
    common(p)
    p.set_defaults(func=_cmd_qdim)

    p = sub.add_parser("truncate", help="graded dimension of a residue truncation")
    p.add_argument("--lambda", dest="shape", required=True)
    p.add_argument("--residues", required=True)
    common(p)
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("tableaux", help="enumerate standard tableaux")
    p.add_argument("--lambda", dest="shape", required=True)
    p.add_argument("--residues", default=None)
    common(p)
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("verify", help="exhaustive checks over all shapes of a size")
    p.add_argument("what", choices=("parity", "row-degree", "hecke"))
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("restricted", help="restricted multipartitions of a size")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_restricted)

    p = sub.add_parser("llt", help="characteristic-0 graded decomposition matrix")
    p.add_argument("--d", type=int, required=True)
    common(p, fmt=("text", "json", "csv"))
    p.set_defaults(func=_cmd_llt)

    p = sub.add_parser("adjustment", help="pin graded adjustment entries")
    common(p)
    p.set_defaults(func=_cmd_adjustment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
