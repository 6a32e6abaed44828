"""Command-line front end: expansion runs, verification suites, knot export.

Exit codes: 0 success, 1 verification failure, 2 usage/resource error.
Machine output goes to --out (or stdout) and is byte-identical across
thread counts; human summaries go to stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle
from .cosbasis import MatrixPair
from .census import Census, representatives
from .diagrams import DEFAULT_KMAX, Pairing, components_and_genus, is_tadpole
from .errors import (InvariantViolation, ResourceLimitError, StructureError,
                     ValidationError)
from .gaussian import (EntrySymbol, RegKernel, iter_pair_partitions,
                       propagator, quartic_monomials, u_bound_check,
                       wick_moment, wick_order_quartic)
from .knots import KNOTS_KMAX, enumerate_knot_diagrams, knot_record
from .oracle import (cached_oracle, entry_positions, gaussian_oracle_moment,
                     richardson_limit)
from .series import (CONVENTIONS, SERIES_ACTIONS, F_of_g, assemble_Z,
                     census_table, connected_assemble, double_limit_check,
                     extract_Flp, f_to_json, flp_to_json, formal_log,
                     planar_loop_counts, series_to_json)

SUITES = ("wick", "euler", "logcheck", "bound", "propagators")
_RECORD_COPIES = 512    # knot record copies per chunk; k = 5 has 61,440 of one

_CONFIG_KEYS = ("kmax", "N", "d", "eps", "convention", "action",
                "threads", "out", "format")


@dataclass
class RunConfig:
    command: str
    kmax: int = 3
    N: tuple[int, ...] = (1, 2)
    d: tuple[int, ...] = (1, 2)
    eps: tuple[float, ...] = (0.1,)
    convention: str = "action"
    action: str = "standard"
    threads: int = 1
    out: str | None = None
    format: str = "json"
    suite: str | None = None

    def validate(self) -> None:
        if self.kmax < 0 or self.kmax > DEFAULT_KMAX:
            raise ValidationError(f"kmax must be in 0..{DEFAULT_KMAX}")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1")
        if not self.N or any(n < 1 for n in self.N):
            raise ValidationError("N values must be >= 1")
        if not self.d or any(v < 1 for v in self.d):
            raise ValidationError("d values must be >= 1")
        if not self.eps or any(e <= 0 for e in self.eps):
            raise ValidationError("epsilon values must be > 0")
        if self.convention not in CONVENTIONS:
            raise ValidationError(f"unknown convention {self.convention!r}")
        if self.action not in SERIES_ACTIONS:
            raise ValidationError(f"unknown action {self.action!r}")
        if self.format not in ("json", "csv"):
            raise ValidationError(f"unknown format {self.format!r}")
        if self.format != "json" and self.command != "expand":
            raise ValidationError(f"only expand writes {self.format}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad integer list {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad float list {text!r}") from exc


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "suite", None):
        cfg.suite = args.suite
    file_values = load_config_file(args.config) if args.config else {}
    converters = {
        "kmax": int, "N": _parse_int_list, "d": _parse_int_list,
        "eps": _parse_float_list, "convention": str, "action": str,
        "threads": int, "out": str, "format": str,
    }
    for key, conv in converters.items():
        if key in file_values:
            setattr(cfg, key, conv(file_values[key]))
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, conv(flag))
    cfg.validate()
    return cfg


def _emit(cfg: RunConfig, chunks) -> None:
    """Write the machine output, chunk by chunk, to --out or stdout."""
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _expand_payload(cfg: RunConfig) -> dict:
    censuses = census_table(cfg.kmax, threads=cfg.threads)
    z = assemble_Z(censuses, cfg.convention, cfg.action)
    lnz = formal_log(z)
    table = extract_Flp(lnz)
    f = F_of_g(table)
    payload = {
        "z_series": series_to_json(z, cfg.convention),
        "lnz_series": series_to_json(lnz, cfg.convention),
        "flp_table": flp_to_json(table),
        "f_of_g": f_to_json(f),
        "action": cfg.action,
    }
    if cfg.action == "standard":
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


def cmd_expand(cfg: RunConfig) -> int:
    payload = _expand_payload(cfg)
    if cfg.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = _payload_to_csv(payload)
    _emit(cfg, (text,))
    _note(f"F(g) = {payload['f_of_g']['rendered']}   "
          f"[convention={cfg.convention}, action={cfg.action}, kmax={cfg.kmax}]")
    return 0


def cmd_knots(cfg: RunConfig) -> int:
    if cfg.kmax > KNOTS_KMAX:
        raise ResourceLimitError(f"knots: kmax must be <= {KNOTS_KMAX}")
    records = []
    per_order = []
    for k in range(1, cfg.kmax + 1):
        codes = enumerate_knot_diagrams(k, cfg.convention, cfg.action)
        codes.sort(key=lambda c: c[0].serialize())
        for code, mult, coeff in codes:
            line = json.dumps(knot_record(k, code, coeff), sort_keys=True,
                              separators=(",", ":"))
            records.append((line + "\n", mult))
        per_order.append(f"k={k}: {sum(m for _, m, _ in codes)} "
                         f"({len(codes)} codes)")
    _emit(cfg, (line * min(_RECORD_COPIES, mult - i) for line, mult in records
                for i in range(0, mult, _RECORD_COPIES)))
    _note("knot diagrams per order: " + ", ".join(per_order))
    return 0


def _entry_pool(N: int, d: int) -> list[EntrySymbol]:
    # entry indices are 1-based throughout
    return [EntrySymbol(f, mu, k, l)
            for f in ("A", "B") for mu in range(1, d + 1)
            for k in range(1, N + 1) for l in range(1, N + 1)]


def _verify_propagators(cfg: RunConfig, failures: list[str]) -> None:
    for N in cfg.N:
        for d in cfg.d:
            symbols = _entry_pool(N, d)
            pos = entry_positions(symbols, N, d)     # validates the pool
            # no eps is reused, so the oracles bypass ``cached_oracle``
            cov = richardson_limit(
                lambda eps: oracle.OracleCovariance(N, d, eps).cov)
            got = cov[np.ix_(pos, pos)]
            for i, x in enumerate(symbols):
                for j, y in enumerate(symbols):
                    want = propagator(x, y)
                    if abs(got[i, j] - want) >= 1e-8:
                        failures.append(
                            f"propagator N={N} d={d} {x} {y}: "
                            f"oracle {complex(got[i, j])} vs {want}")


def _verify_wick(cfg: RunConfig, failures: list[str]) -> None:
    for m in (2, 3):
        want = 1
        for j in range(2 * m - 1, 0, -2):
            want *= j
        got = sum(1 for _ in iter_pair_partitions(2 * m))
        if got != want:
            failures.append(f"pair partition count 2m={2*m}: {got} != {want}")
    rng = random.Random(20260823)     # numpy.random would cost 5.6 MB RSS
    for N in cfg.N:
        for d in cfg.d:
            pool = _entry_pool(N, d)
            picks = [rng.choices(range(len(pool)), k=4) for _ in range(8)]
            picks += [rng.choices(range(len(pool)), k=6) for _ in range(4)]
            for idxs in picks:
                entries = [pool[i] for i in idxs]
                want = wick_moment(entries)
                got = richardson_limit(
                    lambda eps: gaussian_oracle_moment(entries, N, d, eps))
                if abs(got - complex(want)) >= 1e-8:
                    failures.append(
                        f"moment N={N} d={d} {entries}: {got} vs {want}")
            c1, c2 = wick_order_quartic(N, d)
            quartic = entry_positions(quartic_monomials(N, d), N, d)
            pairs = entry_positions(
                [(EntrySymbol("A", mu, a, b), EntrySymbol("B", mu, b, a))
                 for mu in range(1, d + 1)
                 for a in range(1, N + 1) for b in range(1, N + 1)], N, d)

            def ordered_mean(eps):
                orc = cached_oracle(N, d, eps)
                return (orc.moments(quartic).sum()
                        + c1 * orc.moments(pairs).sum() + c2)
            val = richardson_limit(ordered_mean)
            if abs(val) >= 1e-8:
                failures.append(f"E[:quartic:] N={N} d={d} = {val}")


def _verify_euler(cfg: RunConfig, failure_records: list[dict],
                  failures: list[str]) -> None:
    # the reference tracer's weighted fold must equal the census
    censuses = census_table(cfg.kmax, threads=cfg.threads)
    for k in range(1, cfg.kmax + 1):
        fold: Census = {}
        reps = 0
        for bp, weight, _connected in representatives(k):
            reps += weight.size
            # leg rows: A-index i is leg 2i, B-index j is leg 2j + 1
            match = np.empty((len(bp), 4 * k), dtype=np.int8)
            match[:, 0::2] = 2 * bp + 1
            match[:, 1::2] = 2 * bp.argsort(axis=1)
            for row, w in zip(match.tolist(), weight.tolist()):
                p = Pairing(k, tuple(row))
                try:
                    rep = components_and_genus(p)
                except InvariantViolation as exc:
                    failures.append(f"k={k} match={p.match}: {exc}")
                    failure_records.append({"k": k, "match": p.pairs()})
                    continue
                key = (rep.C, rep.l, rep.components == 1, is_tadpole(p))
                fold[key] = fold.get(key, 0) + w
        if fold != censuses[k]:
            failures.append(f"k={k}: weighted reference fold != census")
        _note(f"euler k={k}: {reps} representatives, "
              f"total weight {sum(fold.values())}")


def _verify_logcheck(cfg: RunConfig, failures: list[str]) -> None:
    censuses = census_table(cfg.kmax, threads=cfg.threads)
    for convention in CONVENTIONS:
        lnz = formal_log(assemble_Z(censuses, convention))
        conn = connected_assemble(censuses, convention)
        if lnz != conn:
            failures.append(f"linked-cluster mismatch [{convention}]")
            continue
        try:
            double_limit_check(conn)
        except StructureError as exc:
            failures.append(f"double limit [{convention}]: {exc}")


def _verify_bound(cfg: RunConfig, failures: list[str]) -> None:
    z_samples = [0.5, 1j, 0.7 - 0.3j, -1.1 + 0.4j]
    for N in cfg.N:
        for d in cfg.d:
            for seed in (1, 2):
                fg = MatrixPair.random(N, d, seed=seed)
                for eps in cfg.eps:
                    kernel = RegKernel(min(eps, 0.5))
                    if not u_bound_check(fg, z_samples, kernel=kernel):
                        failures.append(f"bound N={N} d={d} eps={eps} seed={seed}")


def cmd_verify(cfg: RunConfig) -> int:
    failures: list[str] = []
    failure_records: list[dict] = []
    if cfg.suite == "propagators":
        _verify_propagators(cfg, failures)
    elif cfg.suite == "wick":
        _verify_wick(cfg, failures)
    elif cfg.suite == "euler":
        _verify_euler(cfg, failure_records, failures)
    elif cfg.suite == "logcheck":
        _verify_logcheck(cfg, failures)
    elif cfg.suite == "bound":
        _verify_bound(cfg, failures)
    else:
        raise ValidationError(f"unknown suite {cfg.suite!r}")
    if failures:
        for line in failures:
            _note(f"FAIL {line}")
        if failure_records and cfg.out:
            _emit(cfg, (json.dumps(r, sort_keys=True, separators=(",", ":"))
                        + "\n" for r in failure_records))
        _note(f"verify {cfg.suite}: {len(failures)} failure(s)")
        return 1
    _note(f"verify {cfg.suite}: all checks passed")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kmax", type=int, default=None)
    parser.add_argument("--N", default=None, help="comma-separated N values")
    parser.add_argument("--d", default=None, help="comma-separated d values")
    parser.add_argument("--eps", default=None, help="comma-separated epsilons")
    parser.add_argument("--convention", choices=CONVENTIONS, default=None)
    parser.add_argument("--action", choices=SERIES_ACTIONS, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags take precedence")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triline",
        description="Exact perturbative expansion of the two-family quartic "
                    "matrix model: series, diagram census, knot-diagram export.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_expand = sub.add_parser("expand", help="assemble Z, ln Z, the genus/link "
                                             "table, and F(g)")
    _add_common(p_expand)
    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)
    p_knots = sub.add_parser("knots", help="export Gauss codes as JSON lines")
    _add_common(p_knots)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if cfg.command == "expand":
            return cmd_expand(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "knots":
            return cmd_knots(cfg)
        raise ValidationError(f"unknown command {cfg.command!r}")
    except (ValidationError, ResourceLimitError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except (StructureError, InvariantViolation) as exc:
        _note(f"invariant failure: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
