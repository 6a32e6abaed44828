"""Command-line front end: expansion runs, verification suites, knot export.

Each command and each verify suite accepts only the flags its handler
reads (``COMMANDS``, ``SUITES``), plus ``--config FILE``, whose
``key = value`` lines count as flags placed before the command line's.
Exit codes: 0 success, 1 verification failure, 2 usage/resource error;
``--N`` above 8 or ``--d`` above 4 is a usage error.  ``verify wick`` and
``verify propagators`` build one oracle (the eps-free K0) per (N, d); eps
enters only through the oracle's 2 x 2 block: ``verify wick`` asks for
every moment at each eps at once and extrapolates the batch, and
``verify propagators`` extrapolates the block alone and forms each row
of the limit covariance from it and K0.
Machine output goes to --out (or stdout); human summaries go to stderr.
``expand`` and ``verify logcheck`` still accept ``--threads`` (>= 1) and
ignore it: the census runs in one process.  numpy and the modules that
load it (``gaussian``, ``oracle``) are imported by the handlers that use
them, so ``expand``, ``knots``, ``verify logcheck`` and ``verify euler``
never load numpy.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .census import DEFAULT_KMAX, Census, representatives
from .diagrams import Pairing, components_and_genus
from .errors import (InvariantViolation, ResourceLimitError, StructureError,
                     ValidationError)
from .knots import KNOTS_KMAX, enumerate_knot_diagrams, knot_record
from .series import (CONVENTIONS, SERIES_ACTIONS, F_of_g, assemble_Z,
                     census_table, connected_assemble, extract_Flp, f_to_json,
                     flp_to_json, formal_log, planar_loop_counts,
                     series_to_json)

_RECORD_COPIES = 512    # knot record copies per chunk; k = 5 has 61,440 of one


def _checked(parse, ok, want: str):
    """An argparse ``type=``: ``parse`` the text, then require ``ok`` of it."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"want {want}, got {text!r}")
    return convert


def _list_of(num):
    return lambda text: tuple(num(tok) for tok in text.split(",") if tok.strip())


def _sizes(cap: int):
    # the oracle holds K0, (d N^2)^2 complex numbers: 1 MB at the caps
    return _checked(_list_of(int), lambda v: v and 1 <= min(v) <= max(v) <= cap,
                    f"comma-separated integers in 1..{cap}")


# every flag a command may read, as argparse options
_FLAGS = {
    "kmax": {"type": _checked(int, lambda k: 0 <= k <= DEFAULT_KMAX,
                              f"an order in 0..{DEFAULT_KMAX}"), "default": 3},
    "N": {"type": _sizes(8), "default": (1, 2)},
    "d": {"type": _sizes(4), "default": (1, 2)},
    # u_bound_check's bound regime needs eps <= 1/2
    "eps": {"type": _checked(_list_of(float),
                             lambda v: v and all(0 < e <= 0.5 for e in v),
                             "comma-separated epsilons in (0, 0.5]"),
            "default": (0.1,)},
    "convention": {"choices": CONVENTIONS, "default": "action"},
    "action": {"choices": SERIES_ACTIONS, "default": "standard"},
    "threads": {"type": _checked(int, lambda n: n >= 1, "an integer >= 1"),
                "default": 1, "help": "accepted and ignored"},
    "out": {"metavar": "FILE", "help": "machine output file (default stdout)"},
    "format": {"choices": ("json", "csv"), "default": "json"},
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``ValidationError``, so ``main`` exits 2 on them."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # each parser refuses what it does not read: the usage is the command's
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _config_tokens(path: str, reads: tuple[str, ...]) -> list[str]:
    """The ``key = value`` lines of ``path`` as ``--key=value`` tokens."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in reads:
                raise ValidationError(
                    f"{path}:{lineno}: this command does not read {key!r}")
            tokens.append(f"--{key}={value}")
    return tokens


def _emit(args: argparse.Namespace, chunks) -> None:
    """Write the machine output, chunk by chunk, to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _expand_payload(args: argparse.Namespace) -> dict:
    censuses = census_table(args.kmax)
    z = assemble_Z(censuses, args.convention, args.action)
    lnz = formal_log(z)
    table = extract_Flp(lnz)
    payload = {
        "z_series": series_to_json(z, args.convention),
        "lnz_series": series_to_json(lnz, args.convention),
        "flp_table": flp_to_json(table, lnz.kmax),
        "f_of_g": f_to_json(F_of_g(table), lnz.kmax),
        "action": args.action,
    }
    if args.action == "standard":
        payload["planar_loop_counts"] = {
            str(k): v for k, v in planar_loop_counts(censuses).items()}
    return payload


def _payload_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "l", "p", "k", "n_pow", "d_pow",
                     "re_num", "re_den", "im_num", "im_den"])
    for section in ("z_series", "lnz_series"):
        for t in payload[section]["terms"]:
            writer.writerow([section, "", "", t["k"], t["n_pow"], t["d_pow"],
                             t["re_num"], t["re_den"], t["im_num"], t["im_den"]])
    for entry in payload["flp_table"]["entries"]:
        for t in entry["terms"]:
            writer.writerow(["flp_table", entry["l"], entry["p"], t["k"], "", "",
                             t["re_num"], t["re_den"], t["im_num"], t["im_den"]])
    for t in payload["f_of_g"]["terms"]:
        writer.writerow(["f_of_g", "", "", t["k"], "", "",
                         t["re_num"], t["re_den"], t["im_num"], t["im_den"]])
    return buf.getvalue()


def cmd_expand(args: argparse.Namespace) -> int:
    """Assemble Z, ln Z, the genus/link table and F(g)."""
    payload = _expand_payload(args)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = _payload_to_csv(payload)
    _emit(args, (text,))
    _note(f"F(g) = {payload['f_of_g']['rendered']}   "
          f"[convention={args.convention}, action={args.action}, kmax={args.kmax}]")
    return 0


def cmd_knots(args: argparse.Namespace) -> int:
    """Export Gauss codes as JSON lines."""
    if args.kmax > KNOTS_KMAX:
        raise ResourceLimitError(f"knots: kmax must be <= {KNOTS_KMAX}")
    records = []
    per_order = []
    for k in range(1, args.kmax + 1):
        codes = enumerate_knot_diagrams(k, args.convention, args.action)
        codes.sort(key=lambda c: c[0].serialize())
        for code, mult, coeff in codes:
            line = json.dumps(knot_record(k, code, coeff), sort_keys=True,
                              separators=(",", ":"))
            records.append((line + "\n", mult))
        per_order.append(f"k={k}: {sum(m for _, m, _ in codes)} "
                         f"({len(codes)} codes)")
    _emit(args, (line * min(_RECORD_COPIES, mult - i) for line, mult in records
                 for i in range(0, mult, _RECORD_COPIES)))
    _note("knot diagrams per order: " + ", ".join(per_order))
    return 0


def _verify_propagators(args: argparse.Namespace, failures: list[str]) -> None:
    from .gaussian import entry_pool, propagator
    from .oracle import OracleCovariance, block_inverse, richardson_limit
    # eps enters the covariance kron(B(eps)^{-1}, K0) only through the 2 x 2
    # block, so the limit covariance is the block's limit spread over K0
    block = richardson_limit(block_inverse)
    for N in args.N:
        for d in args.d:
            orc = OracleCovariance(N, d)
            symbols = entry_pool(N, d)      # in the order of the rows
            for i, x in enumerate(symbols):
                row = orc.covariance_row(block, i)
                for j, y in enumerate(symbols):
                    want = propagator(x, y)
                    if abs(row[j] - want) >= 1e-8:
                        failures.append(
                            f"propagator N={N} d={d} {x} {y}: "
                            f"oracle {complex(row[j])} vs {want}")


def _verify_wick(args: argparse.Namespace, failures: list[str]) -> None:
    from .gaussian import (EntrySymbol, entry_pool, iter_pair_partitions,
                           wick_moment, wick_order_quartic)
    from .oracle import (OracleCovariance, entry_positions, quartic_positions,
                         richardson_limit)
    for m in (2, 3):
        want = 1
        for j in range(2 * m - 1, 0, -2):
            want *= j
        got = sum(1 for _ in iter_pair_partitions(2 * m))
        if got != want:
            failures.append(f"pair partition count 2m={2*m}: {got} != {want}")
    rng = random.Random(20260823)     # numpy.random would cost 5.6 MB RSS
    for N in args.N:
        for d in args.d:
            pool = entry_pool(N, d)
            fours, sixes = (
                [[pool[i] for i in rng.choices(range(len(pool)), k=deg)]
                 for _ in range(count)] for deg, count in ((4, 8), (6, 4)))
            pairs = [(x, EntrySymbol("B", x.mu, x.l, x.k))
                     for x in pool[:len(pool) // 2]]     # the A entries
            batches = [entry_positions(b, N, d) for b in (fours, sixes)]
            batches += [quartic_positions(N, d), entry_positions(pairs, N, d)]
            c1, c2 = wick_order_quartic(N, d)
            orc = OracleCovariance(N, d)

            def moments_and_ordered_mean(eps):
                four, six, quartic, traces = (orc.moments(b, eps)
                                              for b in batches)
                return [*four, *six, quartic.sum() + c1 * traces.sum() + c2]
            *got, val = richardson_limit(moments_and_ordered_mean)
            for entries, moment in zip(fours + sixes, got):
                want = wick_moment(entries)
                if abs(moment - complex(want)) >= 1e-8:
                    failures.append(
                        f"moment N={N} d={d} {entries}: {complex(moment)} "
                        f"vs {want}")
            if abs(val) >= 1e-8:
                failures.append(f"E[:quartic:] N={N} d={d} = {complex(val)}")


def _verify_euler(args: argparse.Namespace, failures: list[str]) -> None:
    # the reference tracer checks every row of the census's row walk, whose
    # moves are the frontier's (the independent row generator, checked
    # against the frontier for every k <= 7, is tests/row_census.py): each
    # row's key against the walk's, then the weighted fold against the
    # census; --out, written on every run, gets the untraceable pairings
    failure_records: list[dict] = []
    censuses = census_table(args.kmax)
    for k in range(1, args.kmax + 1):
        fold: Census = {}
        reps = 0
        for bp, weight, key in representatives(k):
            reps += 1
            # legs: A-index i is leg 2i, B-index j is leg 2j + 1
            match = [0] * (4 * k)
            for i, j in enumerate(bp):
                match[2 * i], match[2 * j + 1] = 2 * j + 1, 2 * i
            p = Pairing(k, tuple(match))
            try:
                rep = components_and_genus(p)
            except InvariantViolation as exc:
                failures.append(f"k={k} match={p.match}: {exc}")
                failure_records.append({"k": k, "match": p.pairs()})
                continue
            ref = (rep.C, rep.l, rep.components == 1)
            if ref != key:
                failures.append(f"k={k} match={p.pairs()}: "
                                f"reference {ref} != frontier {key}")
            fold[ref] = fold.get(ref, 0) + weight
        if fold != censuses[k]:
            failures.append(f"k={k}: weighted reference fold != census")
        _note(f"euler k={k}: {reps} representatives, "
              f"total weight {sum(fold.values())}")
    if args.out:
        _emit(args, (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                     for r in failure_records))


def _verify_logcheck(args: argparse.Namespace, failures: list[str]) -> None:
    censuses = census_table(args.kmax)
    for convention in CONVENTIONS:
        lnz = formal_log(assemble_Z(censuses, convention))
        conn = connected_assemble(censuses, convention)
        if lnz != conn:
            failures.append(f"linked-cluster mismatch [{convention}]")
            continue
        try:        # on the lattice, (1/dN^2) ln Z -> F_{1,0} as N -> oo, d -> 0
            extract_Flp(conn)
        except StructureError as exc:
            failures.append(f"genus/link lattice [{convention}]: {exc}")


def _verify_bound(args: argparse.Namespace, failures: list[str]) -> None:
    from .gaussian import MatrixPair, u_bound_check
    z_samples = [0.5, 1j, 0.7 - 0.3j, -1.1 + 0.4j]
    for N in args.N:
        for d in args.d:
            for seed in (1, 2):
                fg = MatrixPair.random(N, d, seed=seed)
                for eps in args.eps:
                    if not u_bound_check(fg, z_samples, eps):
                        failures.append(f"bound N={N} d={d} eps={eps} seed={seed}")


def cmd_verify(args: argparse.Namespace) -> int:
    failures: list[str] = []
    args.check(args, failures)
    for line in failures:
        _note(f"FAIL {line}")
    if failures:
        _note(f"verify {args.suite}: {len(failures)} failure(s)")
        return 1
    _note(f"verify {args.suite}: all checks passed")
    return 0


# command or verify suite -> (handler, the flags it reads besides --config)
COMMANDS = {
    "expand": (cmd_expand, ("kmax", "convention", "action", "threads", "out",
                            "format")),
    "knots": (cmd_knots, ("kmax", "convention", "action", "out")),
}
SUITES = {
    "logcheck": (_verify_logcheck, ("kmax", "threads")),
    "euler": (_verify_euler, ("kmax", "out")),
    "wick": (_verify_wick, ("N", "d")),
    "propagators": (_verify_propagators, ("N", "d")),
    "bound": (_verify_bound, ("N", "d", "eps")),
}


def _add_flags(parser, reads: tuple[str, ...], **defaults) -> None:
    for flag in reads:
        parser.add_argument(f"--{flag}", **_FLAGS[flag])
    parser.add_argument("--config", metavar="FILE",
                        help="key = value file; command-line flags take precedence")
    parser.set_defaults(reads=reads, **defaults)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triline",
        description="Exact perturbative expansion of the two-family quartic "
                    "matrix model: series, diagram census, knot-diagram export.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, reads) in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=handler.__doc__), reads,
                   handler=handler)
    verify = sub.add_parser("verify", help="Run an invariant suite.")
    suites = verify.add_subparsers(dest="suite", required=True)
    for name, (check, reads) in SUITES.items():
        _add_flags(suites.add_parser(name), reads, handler=cmd_verify,
                   check=check)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's flags go after the command (and suite) words, before
        # the command line's flags, which therefore win
        head = 2 if args.command == "verify" else 1
        args = parser.parse_args(
            argv[:head] + _config_tokens(args.config, args.reads) + argv[head:])
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
    except (ValidationError, ResourceLimitError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except (StructureError, InvariantViolation) as exc:
        _note(f"invariant failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
