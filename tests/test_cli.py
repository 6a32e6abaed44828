"""Command-line interface: flags, config files, outputs, exit codes."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import triline
from triline import cli
from triline.cli import RunConfig, build_config, load_config_file, main, make_parser
from triline.errors import InvariantViolation, ValidationError
from triline.knots import enumerate_knot_diagrams


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

    def off_by_one(kmax, threads=1):
        table = real(kmax, threads)
        key = next(iter(table[2]))
        table[2] = {**table[2], key: table[2][key] + 1}
        return table

    monkeypatch.setattr(cli, "census_table", off_by_one)
    assert run(["verify", "euler", "--kmax", "3"]) == 1
    fails = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("FAIL")]
    assert fails == ["FAIL k=2: weighted reference fold != census"]


def test_outputs_thread_independent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["expand", "--kmax", "2", "--threads", "1", "--out", str(a)]) == 0
    assert run(["expand", "--kmax", "2", "--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_suites_pass():
    assert run(["verify", "logcheck", "--kmax", "2"]) == 0
    assert run(["verify", "euler", "--kmax", "2"]) == 0
    assert run(["verify", "propagators", "--N", "1", "--d", "1"]) == 0
    assert run(["verify", "bound", "--N", "2", "--d", "1", "--eps", "0.2"]) == 0


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nonsense"])
    assert exc.value.code == 2


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


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 1\n")
    assert run(["expand", "--config", str(bad)]) == 2
    with pytest.raises(ValidationError):
        load_config_file(str(bad))


def test_csv_refused_outside_expand(tmp_path):
    # only expand has a csv writer; elsewhere the flag would be ignored
    assert run(["knots", "--kmax", "1", "--format", "csv"]) == 2
    cfg_file = tmp_path / "csv.cfg"
    cfg_file.write_text("format = csv\n")
    assert run(["knots", "--kmax", "1", "--config", str(cfg_file)]) == 2
    assert run(["verify", "logcheck", "--kmax", "1",
                "--config", str(cfg_file)]) == 2


def test_run_config_validation():
    cfg = RunConfig(command="expand", kmax=9)
    with pytest.raises(ValidationError):
        cfg.validate()
    with pytest.raises(ValidationError):
        RunConfig(command="expand", threads=0).validate()
    with pytest.raises(ValidationError):
        RunConfig(command="expand", eps=(0.0,)).validate()
    with pytest.raises(ValidationError):
        RunConfig(command="expand", format="xml").validate()


def test_parser_flags_exist():
    parser = make_parser()
    args = parser.parse_args(["expand", "--kmax", "3", "--N", "1,2", "--d", "1",
                              "--eps", "0.1,0.01", "--convention", "action",
                              "--action", "standard", "--threads", "2",
                              "--out", "x.json", "--format", "json"])
    cfg = build_config(args)
    assert cfg.N == (1, 2) and cfg.eps == (0.1, 0.01) and cfg.threads == 2


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


def test_verify_propagators_fails_on_wrong_propagator(monkeypatch, capsys):
    real = cli.propagator

    def no_greek_delta(x, y, N=None, d=None):
        if x.mu != y.mu and x.family != y.family:
            return 1j
        return real(x, y, N=N, d=d)

    monkeypatch.setattr(cli, "propagator", no_greek_delta)
    assert run(["verify", "propagators", "--N", "1", "--d", "2"]) == 1
    fails = sorted(line.split(":")[0] for line in
                   capsys.readouterr().err.splitlines()
                   if line.startswith("FAIL"))
    assert fails == sorted(f"FAIL propagator N=1 d=2 {x}{a}^{{11}} {y}{b}^{{11}}"
                           for x, y in ("AB", "BA") for a, b in ((1, 2), (2, 1)))


def test_verify_wick_fails_on_wrong_counterterm(monkeypatch, capsys):
    assert run(["verify", "wick", "--N", "1,2", "--d", "1"]) == 0
    real = cli.wick_order_quartic
    monkeypatch.setattr(cli, "wick_order_quartic",
                        lambda N, d: (real(N, d)[0], real(N, d)[1] + 1e-6))
    assert run(["verify", "wick", "--N", "1,2", "--d", "1"]) == 1
    fails = [line.split(" = ")[0] for line in capsys.readouterr().err.splitlines()
             if line.startswith("FAIL")]
    assert fails == ["FAIL E[:quartic:] N=1 d=1", "FAIL E[:quartic:] N=2 d=1"]


def test_cli_import_loads_no_process_pool():
    # the pool is imported only by a census with threads > 1
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


def test_verify_logcheck_k5_on_two_threads_loads_no_process_pool():
    # orders below series.POOL_MIN_K are traced in the parent
    code = ("import sys; from triline.cli import main; "
            "rc = main(['verify', 'logcheck', '--kmax', '5', '--threads', '2']); "
            "print(rc, 'concurrent.futures.process' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(triline.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]
