"""Command-line interface: flags, config files, outputs, exit codes."""
import gc
import hashlib
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import triline
from triline import cli, gaussian, oracle
from triline.cli import COMMANDS, SUITES, main, make_parser
from triline.diagrams import Pairing
from triline.errors import InvariantViolation, ValidationError
from triline.knots import enumerate_knot_diagrams
from triline.series import SERIES_ACTIONS


def run(args):
    return main(args)


def test_expand_kmax_zero(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run(["expand", "--kmax", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["f_of_g"]["rendered"] == "ln(pi)"
    assert payload["f_of_g"]["terms"] == []


def test_expand_first_order(tmp_path):
    out = tmp_path / "f.json"
    assert run(["expand", "--kmax", "1", "--convention", "action",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["f_of_g"]["rendered"] == "ln(pi) - i*g"
    term, = payload["f_of_g"]["terms"]
    assert (term["im_num"], term["im_den"]) == (-1, 1)


def test_expand_cap_exit_2():
    assert run(["expand", "--kmax", "8"]) == 2     # one past the cap
    assert run(["expand", "--kmax", "99"]) == 2


def test_expand_csv(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["expand", "--kmax", "1", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["section", "l", "p", "k"]
    assert any(line.startswith("f_of_g") for line in lines)


def test_knots_k1(tmp_path):
    out = tmp_path / "k.jsonl"
    assert run(["knots", "--kmax", "1", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["code"] == "O1U1" and r["reduced_code"] == "" for r in records)


def test_knots_contains_trefoil(tmp_path):
    out = tmp_path / "k.jsonl"
    assert run(["knots", "--kmax", "3", "--out", str(out)]) == 0
    codes = [json.loads(line)["code"] for line in out.read_text().splitlines()]
    assert "O1U2O3U1O2U3" in codes


def test_knots_write_each_code_multiplicity_times(tmp_path):
    out = tmp_path / "k.jsonl"
    assert run(["knots", "--kmax", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    keys = [(r["k"], r["code"]) for r in map(json.loads, lines)]
    assert keys == sorted(keys)
    want = {(k, c.serialize()): m for k in range(1, 5)
            for c, m, _ in enumerate_knot_diagrams(k)}
    assert Counter(keys) == want and len(set(lines)) == len(want)
    assert len(lines) == 2 + 16 + 336 + 12_480


def test_knots_output_chunks_bounded(monkeypatch):
    # codes repeat up to 61,440 times at k = 5; a chunk holds at most
    # _RECORD_COPIES lines, and k = 4 has codes that need more than one
    chunks = []
    monkeypatch.setattr(cli, "_emit", lambda cfg, parts: chunks.extend(parts))
    assert run(["knots", "--kmax", "4"]) == 0
    assert len("".join(chunks).splitlines()) == 2 + 16 + 336 + 12_480
    assert max(chunk.count("\n") for chunk in chunks) == 512 == cli._RECORD_COPIES


def test_knots_cap_exit_2(capsys):
    assert run(["knots", "--kmax", "6"]) == 2
    assert "kmax must be <= 5" in capsys.readouterr().err


def test_verify_euler_fails_on_census_mismatch(monkeypatch, capsys):
    real = cli.census_table

    def off_by_one(kmax):
        table = real(kmax)
        key = next(iter(table[2]))
        table[2] = {**table[2], key: table[2][key] + 1}
        return table

    monkeypatch.setattr(cli, "census_table", off_by_one)
    assert run(["verify", "euler", "--kmax", "3"]) == 1
    fails = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("FAIL")]
    assert fails == ["FAIL k=2: weighted reference fold != census"]


def test_verify_euler_names_the_row_that_broke(monkeypatch, capsys):
    # one k = 2 pairing traced with a wrong C: its line names it and both keys
    real = cli.components_and_genus
    broken = [(0, 1), (2, 3), (4, 5), (6, 7)]

    def wrong_c(p):
        rep = real(p)
        return replace(rep, C=rep.C + 1) if p.pairs() == broken else rep

    monkeypatch.setattr(cli, "components_and_genus", wrong_c)
    assert run(["verify", "euler", "--kmax", "3"]) == 1
    p = Pairing.from_pairs(2, broken)
    rep = real(p)
    frontier = (rep.C, rep.l, rep.components == 1)
    reference = (rep.C + 1,) + frontier[1:]
    fails = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("FAIL")]
    assert fails == [f"FAIL k=2 match={broken}: reference {reference} "
                     f"!= frontier {frontier}",
                     "FAIL k=2: weighted reference fold != census"]


def test_outputs_thread_independent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["expand", "--kmax", "2", "--threads", "1", "--out", str(a)]) == 0
    assert run(["expand", "--kmax", "2", "--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of each machine output: the bytes the ROADMAP keeps identical
GOLDEN_OUTPUTS = [
    ("expand --kmax 5 --convention action --action standard --format json",
     "d9dc73845d6a9818b92a870602e82361d639ef1fecb7a7a8b66ddd2d72da91e0"),
    ("expand --kmax 5 --convention action --action standard --format csv",
     "3e3f2b2600811460fad046f60211b87a42e699fc9196a169fd57c7b38772a989"),
    ("expand --kmax 5 --convention paper_series --action standard --format json",
     "f7b18c0ad58c4fecbad0c2cbd9bd935e8bfd6b2acb8c351908dab96ad9f0cf5b"),
    ("expand --kmax 5 --convention paper_series --action standard --format csv",
     "9feba059ebadfbf65cbe9a9fb8c555707d068624f7d923ca93adee71a17a167c"),
    ("expand --kmax 5 --convention action --action wick_ordered --format json",
     "32bd0cb9c347d588e71ef3a1b9189588964465ade319e9aa8cdb509b6bc26740"),
    ("expand --kmax 5 --convention action --action wick_ordered --format csv",
     "2e33ccc92d811f126ca4b4014183af79ebae8b978e8bec2d74e65ec5d880ed8b"),
    ("expand --kmax 5 --convention paper_series --action wick_ordered "
     "--format json",
     "1a99cb37fd7ed98d547d2dee4a93ebfcb8bf3b4ac598153907931577a39c6f67"),
    ("expand --kmax 5 --convention paper_series --action wick_ordered "
     "--format csv",
     "39ce27a0f30b5449ba1c68d529c9c6117b32a35d7e5747c688c76cbbbd137fff"),
    ("knots --kmax 4 --action standard",
     "aed86d58dca53a4446d2fca2d086636338d171cedb3c46ca36921754156e4d16"),
    ("knots --kmax 4 --action wick_ordered",
     "e586c3fbab3d007f3a1a88b8f7c73d8f835324ed5298e46f4808823e10ccb5f2"),
]
# (convention, action) -> the F(g) that expand prints on stderr
GOLDEN_F = {
    ("action", "standard"):
        "ln(pi) - i*g - 2*g^2 + 7i*g^3 + 65/2*g^4 - 898/5i*g^5",
    ("paper_series", "standard"):
        "ln(pi) - 2i*g - 8*g^2 + 56i*g^3 + 520*g^4 - 28736/5i*g^5",
    ("action", "wick_ordered"): "ln(pi) + 1/3i*g^3 + 1/2*g^4 - 6/5i*g^5",
    ("paper_series", "wick_ordered"): "ln(pi) + 8/3i*g^3 + 8*g^4 - 192/5i*g^5",
}


@pytest.mark.parametrize("argv, digest", GOLDEN_OUTPUTS)
def test_golden_outputs(argv, digest, tmp_path, capsys):
    words = argv.split()
    out = tmp_path / "out"
    assert run(words + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if words[0] == "expand":
        opt = dict(zip(words[1::2], words[2::2]))
        conv, action = opt["--convention"], opt["--action"]
        assert capsys.readouterr().err == (
            f"F(g) = {GOLDEN_F[conv, action]}   [convention={conv}, "
            f"action={action}, kmax={opt['--kmax']}]\n")


def test_verify_suites_pass():
    assert run(["verify", "logcheck", "--kmax", "2"]) == 0
    assert run(["verify", "euler", "--kmax", "2"]) == 0
    assert run(["verify", "propagators", "--N", "1", "--d", "1"]) == 0
    assert run(["verify", "bound", "--N", "2", "--d", "1", "--eps", "0.2,0.5"]) == 0


def test_verify_bound_at_large_trace_norm():
    # T1 reaches 268 here; the bound is compared as logarithms
    assert run(["verify", "bound", "--N", "7", "--d", "3"]) == 0


def test_no_oracle_outlives_its_suite():
    assert run(["verify", "wick", "--N", "1,2", "--d", "1"]) == 0
    assert run(["verify", "propagators", "--N", "1,2", "--d", "1"]) == 0
    gc.collect()
    assert not [o for o in gc.get_objects()
                if isinstance(o, oracle.OracleCovariance)]


def test_verify_unknown_suite_rejected(capsys):
    assert run(["verify", "nonsense"]) == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        make_parser().parse_args(["verify", "nonsense"])


def test_config_file_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("kmax = 2\nconvention = paper_series\n# note\n")
    out = tmp_path / "o.json"
    assert run(["expand", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["z_series"]["kmax"] == 2
    assert run(["expand", "--config", str(cfg_file), "--kmax", "1",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["z_series"]["kmax"] == 1
    assert payload["z_series"]["convention"] == "paper_series"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("# run settings\nkmax = 1\nfrobnicate = 1\n")
    assert run(["expand", "--config", str(bad)]) == 2
    assert f"{bad}:3: this command does not read 'frobnicate'" \
        in capsys.readouterr().err
    bad.write_text("kmax 1\n")
    assert run(["expand", "--config", str(bad)]) == 2
    assert f"{bad}:1: expected key = value" in capsys.readouterr().err


def test_csv_refused_outside_expand(tmp_path, capsys):
    # only expand has a csv writer, so only expand has --format
    assert run(["knots", "--kmax", "1", "--format", "csv"]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    cfg_file = tmp_path / "csv.cfg"
    cfg_file.write_text("format = csv\n")
    assert run(["knots", "--kmax", "1", "--config", str(cfg_file)]) == 2
    assert run(["verify", "logcheck", "--kmax", "1",
                "--config", str(cfg_file)]) == 2


def test_run_config_validation():
    # range checks are argparse converters: a usage error, exit 2
    for argv in (["expand", "--kmax", "9"], ["expand", "--kmax", "-1"],
                 ["expand", "--kmax", "x"], ["expand", "--threads", "0"],
                 ["verify", "bound", "--eps", "0.0"],
                 ["verify", "bound", "--eps", "0.7"],    # u_bound_check's limit
                 ["verify", "bound", "--eps", "0.1,-1"],
                 ["verify", "wick", "--N", "0"], ["verify", "wick", "--d", ","],
                 # the oracle's covariance grows as (2 d N^2)^2: caps 8 and 4
                 ["verify", "wick", "--N", "9"],
                 ["verify", "propagators", "--N", "2,9"],
                 ["verify", "bound", "--d", "5"],
                 ["expand", "--format", "xml"],
                 ["expand", "--convention", "other"],
                 # --action is standard or wick_ordered, for every command
                 ["expand", "--action", "symmetric"],
                 ["knots", "--kmax", "0", "--action", "symmetric"],
                 ["knots", "--kmax", "1", "--action", "symmetric"]):
        with pytest.raises(ValidationError):
            make_parser().parse_args(argv)
        assert run(argv) == 2


def test_parser_flags_exist():
    parser = make_parser()
    args = parser.parse_args(["expand", "--kmax", "3", "--convention", "action",
                              "--action", "standard", "--threads", "2",
                              "--out", "x.json", "--format", "json"])
    assert (args.kmax, args.threads, args.out) == (3, 2, "x.json")
    args = parser.parse_args(["verify", "bound", "--N", "1,2", "--d", "1",
                              "--eps", "0.1,0.01"])
    assert args.N == (1, 2) and args.d == (1,) and args.eps == (0.1, 0.01)
    args = parser.parse_args(["verify", "wick", "--N", "1,8", "--d", "4"])
    assert (args.N, args.d) == ((1, 8), (4,))
    args = parser.parse_args(["verify", "logcheck"])
    assert (args.kmax, args.threads) == (3, 1)


_FLAG_VALUES = {"kmax": "1", "N": "1", "d": "1", "eps": "0.1",
                "convention": "action", "action": "standard", "threads": "1",
                "format": "json"}
_UNREAD = [(name, flag) for name, (_, reads) in {**COMMANDS, **SUITES}.items()
           for flag in (*_FLAG_VALUES, "out") if flag not in reads]


def test_flag_table_size():
    # each command or suite reads its own flags, and --config: 28 of the
    # 7 x 10 (command, flag) pairs
    tables = {**COMMANDS, **SUITES}
    assert len(tables) == 7 and len(_FLAG_VALUES) + 2 == 10
    assert sum(len(reads) + 1 for _, reads in tables.values()) == 28
    assert len(_UNREAD) == 70 - 28


@pytest.mark.parametrize("name,flag", _UNREAD)
def test_unread_flags_refused(name, flag, tmp_path, capsys):
    words = ["verify", name] if name in SUITES else [name]
    reads = {**COMMANDS, **SUITES}[name][1]
    out = tmp_path / "out.txt"
    value = str(out) if flag == "out" else _FLAG_VALUES[flag]
    tail = ["--out", str(out)] if "out" in reads else []
    assert run(words + [f"--{flag}", value] + tail) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert run(words + ["--config", str(cfg)] + tail) == 2
    captured = capsys.readouterr()
    # the command's (or suite's) own parser refuses it, so its usage is shown
    prog = " ".join(["triline"] + words)
    assert captured.err.startswith(f"usage: {prog} [-h] ")
    assert f"{prog}: unrecognized arguments: --{flag} " in captured.err
    assert f"{cfg}:1: this command does not read {flag!r}" in captured.err
    assert captured.out == "" and not out.exists()


# the benchmark's argvs (perfbench/workloads.py), copied
_BENCH_ARGVS = [
    ("expand", "--kmax", "5", "--threads", "1", "--out", "{out}/expand.json"),
    ("verify", "logcheck", "--kmax", "5", "--threads", "2"),
    ("verify", "euler", "--kmax", "4"),
    ("verify", "wick", "--N", "4", "--d", "3"),
    ("verify", "propagators", "--N", "5", "--d", "3"),
    ("knots", "--kmax", "4", "--out", "{out}/knots.jsonl"),
]


def test_benchmark_argvs_reach_handlers(monkeypatch, tmp_path):
    seen = []

    def stub(args):
        seen.append(args)
        return 0

    for name, (_, reads) in COMMANDS.items():
        monkeypatch.setitem(COMMANDS, name, (stub, reads))
    for name, (_, reads) in SUITES.items():
        monkeypatch.setitem(SUITES, name, (lambda args, failures: stub(args),
                                           reads))
    for argv in _BENCH_ARGVS:
        assert run([a.format(out=tmp_path) for a in argv]) == 0
    got = [{k: getattr(a, k) for k in ("kmax", "threads", "N", "d", "out")
            if hasattr(a, k)} for a in seen]
    assert got == [
        {"kmax": 5, "threads": 1, "out": f"{tmp_path}/expand.json"},
        {"kmax": 5, "threads": 2},
        {"kmax": 4, "out": None},
        {"N": (4,), "d": (3,)},
        {"N": (5,), "d": (3,)},
        {"kmax": 4, "out": f"{tmp_path}/knots.jsonl"},
    ]


def test_readme_cli_examples_parse():
    readme = Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1]
    examples = [shlex.split(line, comments=True)
                for line in block.split("```", 1)[0].splitlines()
                if line.startswith("triline ")]
    assert len(examples) >= 10
    parser = make_parser()
    for words in examples:
        parser.parse_args(words[1:])


def test_symmetric_cap_before_census(monkeypatch, capsys):
    # the action is refused at parse time, at every order: no census is built
    def no_census(kmax):
        raise AssertionError("census built")

    monkeypatch.setattr(cli, "census_table", no_census)
    for kmax in ("1", "4"):
        assert run(["expand", "--action", "symmetric", "--kmax", kmax]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "symmetric" in err


@pytest.mark.parametrize("command", [name for name, (_, reads) in
                                     COMMANDS.items() if "action" in reads])
def test_action_choices_are_the_series_actions(command, capsys):
    parser = make_parser()
    for action in SERIES_ACTIONS:
        assert parser.parse_args([command, "--action", action]).action == action
    assert run([command, "--action", "symmetric"]) == 2
    err = capsys.readouterr().err.split("invalid choice", 1)[1]
    assert all(action in err for action in SERIES_ACTIONS)


def test_wick_ordered_expand(tmp_path):
    out = tmp_path / "wo.json"
    assert run(["expand", "--kmax", "2", "--action", "wick_ordered",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    ks = {t["k"] for t in payload["z_series"]["terms"]}
    assert 1 not in ks      # order g is pure tadpole, removed by ordering


def test_verify_euler_records_untraceable_pairings(monkeypatch, tmp_path):
    real = cli.components_and_genus

    def broken(p):
        if p.k == 2 and p.match[0] == 1:
            raise InvariantViolation("forced")
        return real(p)

    monkeypatch.setattr(cli, "components_and_genus", broken)
    out = tmp_path / "fail.jsonl"
    assert run(["verify", "euler", "--kmax", "3", "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["k"] == 2 and r["match"][0] == [0, 1]
                           for r in records)


def test_verify_euler_out_truncated_on_a_passing_run(tmp_path):
    # --out holds this run's untraceable pairings: none, not an old run's
    out = tmp_path / "fail.jsonl"
    out.write_text('{"k":3,"match":"stale"}\n')
    assert run(["verify", "euler", "--kmax", "2", "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_verify_euler_out_replaces_stale_records_on_a_failing_run(
        monkeypatch, tmp_path):
    real = cli.components_and_genus

    def broken(p):
        if p.k == 1:
            raise InvariantViolation("forced")
        return real(p)

    monkeypatch.setattr(cli, "components_and_genus", broken)
    out = tmp_path / "fail.jsonl"
    out.write_text('{"k":3,"match":"stale"}\n')
    assert run(["verify", "euler", "--kmax", "2", "--out", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["k"] == 1 for r in records)


def test_verify_propagators_fails_on_wrong_propagator(monkeypatch, capsys):
    real = gaussian.propagator

    def no_greek_delta(x, y):
        if x.mu != y.mu and x.family != y.family:
            return 1j
        return real(x, y)

    monkeypatch.setattr(gaussian, "propagator", no_greek_delta)
    assert run(["verify", "propagators", "--N", "1", "--d", "2"]) == 1
    fails = sorted(line.split(":")[0] for line in
                   capsys.readouterr().err.splitlines()
                   if line.startswith("FAIL"))
    assert fails == sorted(f"FAIL propagator N=1 d=2 {x}{a}^{{11}} {y}{b}^{{11}}"
                           for x, y in ("AB", "BA") for a, b in ((1, 2), (2, 1)))


def test_verify_wick_fails_on_wrong_counterterm(monkeypatch, capsys):
    assert run(["verify", "wick", "--N", "1,2", "--d", "1"]) == 0
    real = gaussian.wick_order_quartic
    monkeypatch.setattr(gaussian, "wick_order_quartic",
                        lambda N, d: (real(N, d)[0], real(N, d)[1] + 1e-6))
    assert run(["verify", "wick", "--N", "1,2", "--d", "1"]) == 1
    fails = [line.split(" = ")[0] for line in capsys.readouterr().err.splitlines()
             if line.startswith("FAIL")]
    assert fails == ["FAIL E[:quartic:] N=1 d=1", "FAIL E[:quartic:] N=2 d=1"]


def test_cli_import_loads_no_process_pool():
    # the census runs in one process, whatever --threads says
    code = ("import sys, triline.cli; print([m for m in sys.modules "
            "if m in ('concurrent.futures.process', 'multiprocessing')])")
    env = dict(os.environ, PYTHONPATH=str(Path(triline.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_verify_wick_loads_no_numpy_random():
    # the products are drawn with the stdlib's random
    code = ("import sys; from triline.cli import main; "
            "rc = main(['verify', 'wick', '--N', '1', '--d', '1']); "
            "print(rc, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(triline.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["0", "False"]


def test_expand_logcheck_knots_euler_load_no_numpy():
    # the frontier census, its row walk and the series are pure Python;
    # only the handlers that need numpy (wick, propagators, bound) import it
    code = ("import os, sys; from triline.cli import main; "
            "rc = [main(['expand', '--kmax', '5', '--out', os.devnull]), "
            "main(['verify', 'logcheck', '--kmax', '5', '--threads', '2']), "
            "main(['knots', '--kmax', '4', '--out', os.devnull]), "
            "main(['verify', 'euler', '--kmax', '3'])]; "
            "print(*rc, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(triline.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["0", "0", "0", "0", "False"]
