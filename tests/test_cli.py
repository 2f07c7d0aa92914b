import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from isophasal.brackets import Bracket, bracket_to_text, builtin_bracket
from isophasal.cli import main
from isophasal.config import _DEFAULTS, ConfigError, _parse_lines, load_config, parse_config
from isophasal.intertwine import TEST_BASKET
from conftest import random_bracket

FAST_QUAD = "quadrature.nodes = 2048\nquadrature.replicates = 3\n"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# --- config -------------------------------------------------------------------

def test_defaults_parse():
    cfg = load_config(None)
    assert cfg.bracket().m == 6
    assert cfg.second_bracket() is None
    assert cfg.quadrature().n_nodes == 100_000
    assert cfg.s_list == (1.0, 2.0, 4.0, 8.0, 16.0)


def test_parse_unknown_key_has_line():
    for key in ("bogus.key", "quadrature.method", "quadrature.preflight"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"cutoff.r1sq = 1.0\n{key} = qmc\n")
        assert err.value.line == 2
        assert err.value.field == key
        assert key in str(err.value)


def test_parse_bad_value_has_line_and_field():
    with pytest.raises(ConfigError) as err:
        parse_config("quadrature.nodes = many\n")
    assert err.value.line == 1
    assert err.value.field == "quadrature.nodes"


@pytest.mark.parametrize("key, value", [
    ("cutoff.r1sq", "nan"),
    ("cutoff.r2sq", "0"),
    ("cutoff.amplitude", "-0.5"),
    ("cutoff.s", "inf"),
    ("cutoff.s", "wide"),
    ("quadrature.nodes", "0"),
    ("quadrature.nodes", str(2**30 + 1)),
    ("quadrature.replicates", "1"),
    ("quadrature.seed", "-1"),
    ("quadrature.seed", "1.5"),
    ("intertwine.n_points", "0"),
    ("intertwine.n_functions", "0"),
    ("sweep.s_list", "1,2,nan,8,16"),
])
def test_bad_value_names_line_and_key(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"# a comment line\nbracket.builtin = cross1\n{key} = {value}\n")
    assert (err.value.line, err.value.field) == (3, key)
    assert "line 3" in str(err.value) and key in str(err.value)


def test_n_functions_above_basket_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("intertwine.n_functions = 20\n")
    assert (err.value.line, err.value.field) == (1, "intertwine.n_functions")
    assert f"<= {len(TEST_BASKET)}" in str(err.value)
    assert parse_config(f"intertwine.n_functions = {len(TEST_BASKET)}\n").n_functions == len(TEST_BASKET)


def test_override_error_has_no_line():
    # the file's line no longer holds the value that failed
    with pytest.raises(ConfigError) as err:
        parse_config("quadrature.nodes = 4096\n", overrides={"quadrature.nodes": "0"})
    assert (err.value.line, err.value.field) == (None, "quadrature.nodes")


def _two_dim_bracket(m):
    tensor = np.zeros((2, m, m))
    tensor[0, 0, 1] = 1.0
    tensor[0, 1, 0] = -1.0
    return Bracket(tensor)


def test_paths_relative_to_where_they_were_typed(tmp_path, monkeypatch):
    # a path in the config file is taken from the file's directory, one from an override (a flag such
    # as --out) from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "run.cfg").write_text("output.dir = artifacts\nbracket.file = b.bracket\n")
    (tmp_path / "sub" / "b.bracket").write_text(bracket_to_text(builtin_bracket("cross2")))
    (tmp_path / "b.bracket").write_text(bracket_to_text(builtin_bracket("quaternion")))
    cfg = load_config("sub/run.cfg")
    assert cfg.out_dir == Path("sub/artifacts")
    np.testing.assert_array_equal(cfg.bracket().tensor, builtin_bracket("cross2").tensor)
    cfg = load_config("sub/run.cfg", overrides={"output.dir": "artifacts", "bracket.file": "b.bracket"})
    assert cfg.out_dir == Path("artifacts")
    np.testing.assert_array_equal(cfg.bracket().tensor, builtin_bracket("quaternion").tensor)


def test_dimension_mismatch_rejected(tmp_path):
    small = _two_dim_bracket(4)
    path = tmp_path / "small.bracket"
    path.write_text(bracket_to_text(small))
    with pytest.raises(ConfigError) as err:
        parse_config(f"bracket.builtin = cross1\nbracket2.file = {path}\n", base_dir=tmp_path)
    assert "mismatch" in str(err.value)
    assert (err.value.line, err.value.field) == (2, "bracket2.file")


def test_bracket_file_round_trip(tmp_path):
    path = tmp_path / "b.bracket"
    path.write_text(bracket_to_text(builtin_bracket("cross2")))
    cfg = parse_config(f"bracket.file = {path.name}\nbracket.builtin =\n", base_dir=tmp_path)
    np.testing.assert_array_equal(cfg.bracket().tensor, builtin_bracket("cross2").tensor)


def test_bracket_built_at_parse_time(tmp_path):
    path = tmp_path / "b.bracket"
    path.write_text(bracket_to_text(builtin_bracket("cross2")))
    cfg = parse_config(f"bracket.file = {path.name}\n", base_dir=tmp_path)
    b = cfg.bracket()
    path.unlink()
    assert cfg.bracket() is b
    np.testing.assert_array_equal(b.tensor, builtin_bracket("cross2").tensor)


def test_cli_reads_each_bracket_file_once(tmp_path, monkeypatch):
    for name in ("cross1", "cross2"):
        (tmp_path / f"{name}.bracket").write_text(bracket_to_text(builtin_bracket(name)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket.file = cross1.bracket\nbracket2.file = cross2.bracket\n"
                   "intertwine.n_points = 1\nintertwine.n_functions = 1\n")
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **kw: reads.append(self.name) or read_text(self, *a, **kw))
    assert main(["intertwine", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sorted(reads) == ["cross1.bracket", "cross2.bracket", "run.cfg"]


def test_config_hash_pinned():
    # sha256 of the sorted key=value lines, output.dir left out; criterion 9's config
    # is the one tests/test_acceptance.py runs
    assert load_config(None).config_hash == "38d8fe21083f047c"
    criterion_9 = parse_config(
        "quadrature.nodes = 8192\nquadrature.replicates = 3\n"
        "intertwine.n_points = 4\nintertwine.n_functions = 2\nbracket2.builtin = cross2\n"
    )
    assert criterion_9.config_hash == "98b502fd1f51cb43"


def test_config_hash_ignores_output_dir():
    c1 = parse_config("output.dir = a\n")
    c2 = parse_config("output.dir = b\n")
    assert c1.config_hash == c2.config_hash
    c3 = parse_config("quadrature.seed = 7\n")
    assert c3.config_hash != c1.config_hash


def test_readme_config_block_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = [b for b in readme.split("```")[1::2] if "\nbracket.builtin = " in "\n" + b]
    _parse_lines(block)  # raises ConfigError on a key the config does not know
    # a key may appear set or in a comment ("# or bracket.file = ..."), but always as "key ="
    missing = [key for key in _DEFAULTS if not re.search(rf"(?<![\w.]){re.escape(key)} =", block)]
    assert not missing, missing


# --- commands -------------------------------------------------------------------

def test_cli_brackets(tmp_path, capsys):
    rc = main(["brackets", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "centralizer_dim=1" in out and "centralizer_dim=0" in out and "centralizer_dim=4" in out
    records = read_jsonl(tmp_path / "out" / "brackets.jsonl")
    pairs = [r for r in records if r["kind"] == "pair"]
    assert len(pairs) == 3
    assert all(r["isospectral"] for r in pairs)
    assert all(not r["fingerprints_equal"] for r in pairs)
    assert all("config_hash" in r and "seed" in r for r in records)


def test_cli_a2_schema(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_QUAD)
    rc = main(["a2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    (rec,) = read_jsonl(tmp_path / "out" / "a2.jsonl")
    for key in ("s", "a2", "stderr", "n_nodes", "seed", "config_hash"):
        assert key in rec
    assert rec["n_nodes"] == 2048
    assert rec["a2"] > 0
    assert len(rec["inside_fractions"]) == 3
    assert rec["inside_fraction"] == float(np.mean(rec["inside_fractions"]))
    assert rec["preflight_deviation"] < 1e-12  # the CLI always runs the preflight


def test_cli_a2_deterministic(tmp_path, monkeypatch, opened_pools):
    # above one pool task of nodes, on two cores, so the second run forks two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_QUAD)
    for d, threads in (("o1", "1"), ("o2", "2")):
        monkeypatch.setenv("ISOPHASAL_THREADS", threads)
        main(["a2", "--config", str(cfg), "--nodes", "8192", "--out", str(tmp_path / d)])
    assert opened_pools == [2]
    b1 = (tmp_path / "o1" / "a2.jsonl").read_bytes()
    b2 = (tmp_path / "o2" / "a2.jsonl").read_bytes()
    assert b1 == b2


def _without(rec, *keys):
    return {k: v for k, v in rec.items() if k not in keys}


def test_cli_a2_pair(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket2.builtin = quaternion\n" + FAST_QUAD)
    assert main(["a2", "--config", str(cfg), "--out", str(tmp_path / "pair")]) == 0
    first, second, pair = read_jsonl(tmp_path / "pair" / "a2.jsonl")
    assert (first["bracket"], second["bracket"]) == ("bracket", "bracket2")
    # each bracket's record is its lone run's record, tagged: one spec, one node set
    for rec, builtin in ((first, "cross1"), (second, "quaternion")):
        lone = tmp_path / builtin
        lone.with_suffix(".cfg").write_text(f"bracket.builtin = {builtin}\n" + FAST_QUAD)
        assert main(["a2", "--config", str(lone.with_suffix(".cfg")), "--out", str(lone)]) == 0
        (lone_rec,) = read_jsonl(lone / "a2.jsonl")
        assert _without(rec, "bracket", "config_hash") == _without(lone_rec, "config_hash")
    assert pair["kind"] == "pair" and pair["pair"] == ["bracket", "bracket2"]
    assert pair["isospectral"] and pair["consistent"]
    assert pair["difference"] == first["a2"] - second["a2"]
    assert pair["combined_error"] == float(np.hypot(first["stderr"], second["stderr"]))
    assert pair["within"] == abs(pair["difference"]) / pair["combined_error"] <= 3.0
    assert all(r["config_hash"] == first["config_hash"] and "seed" in r for r in (second, pair))
    assert "bracket vs bracket2: isospectral" in capsys.readouterr().out


def test_cli_a2_pair_not_isospectral_exits_1(tmp_path):
    # twice cross1: its spectra double and its a2 about quadruples, 4.8 sigma off at these sizes
    (tmp_path / "double.bracket").write_text(bracket_to_text(builtin_bracket("cross1").scaled(2.0)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket2.file = double.bracket\n" + FAST_QUAD)
    assert main(["a2", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    *brackets, pair = read_jsonl(tmp_path / "out" / "a2.jsonl")
    assert [r["bracket"] for r in brackets] == ["bracket", "bracket2"]
    assert not pair["isospectral"] and not pair["consistent"]


def test_cli_a2_pair_deterministic(tmp_path, monkeypatch, opened_pools):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket2.builtin = quaternion\n" + FAST_QUAD)
    for d, threads in (("o1", "1"), ("o2", "2")):
        monkeypatch.setenv("ISOPHASAL_THREADS", threads)
        assert main(["a2", "--config", str(cfg), "--nodes", "8192", "--out", str(tmp_path / d)]) == 0
    assert opened_pools == [2, 2]  # one pool per bracket in the two-worker run
    assert (tmp_path / "o1" / "a2.jsonl").read_bytes() == (tmp_path / "o2" / "a2.jsonl").read_bytes()


def test_cli_sweep_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_QUAD)
    main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
          "--s-list", "1,2,4,8,16"])
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "s,a2,stderr"
    assert len(csv_lines) == 6
    (fit,) = read_jsonl(tmp_path / "out" / "sweep.jsonl")
    assert fit["exponents"][0] == -4
    # fit_sweep refuses designs above 1e12
    assert 1.0 <= fit["condition"] <= 1e12
    # each scale's certified torus-equivariance deviation, at rounding level
    assert len(fit["preflight_deviations"]) == 5
    assert all(0.0 <= d < 1e-12 for d in fit["preflight_deviations"])


def test_cli_intertwine(tmp_path):
    cfg = tmp_path / "run.cfg"
    # five functions: the fifth's mode (1, -1, 0) is the first whose A_Z carries
    # rounding, so the reported conjugator residuals are not all exact zeros
    cfg.write_text("bracket2.builtin = quaternion\nintertwine.n_points = 4\nintertwine.n_functions = 5\n")
    rc = main(["intertwine", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    (rec,) = read_jsonl(tmp_path / "out" / "intertwine.jsonl")
    for key in ("pair", "N", "n_points", "max_residual", "truncation_tail", "residual_conj", "residual_orth",
                "n_conjugators"):
        assert key in rec
    # the basket's own band: the five functions carry |Z|_inf <= 1
    assert rec["N"] == 1
    assert rec["max_residual"] <= 1e-4
    # the conjugators' spectrum tolerance
    assert 0.0 < rec["residual_conj"] <= 1e-10
    assert 0.0 < rec["residual_orth"] <= 1e-10
    # one A_Z per function's mode, A_0 = I included
    assert rec["n_conjugators"] == 5


def test_cli_intertwine_needs_bracket2(tmp_path, capsys):
    # a lone bracket is not silently checked against some other pair
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket.builtin = quaternion\n")
    out = tmp_path / "out"
    assert main(["intertwine", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'bracket2'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_intertwine_not_isospectral_exits_1(tmp_path, capsys):
    # the pair fails the check: one line on stderr, no traceback and no artifact
    (tmp_path / "double.bracket").write_text(bracket_to_text(builtin_bracket("cross1").scaled(2.0)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket2.file = double.bracket\nintertwine.n_points = 2\nintertwine.n_functions = 2\n")
    out = tmp_path / "out"
    assert main(["intertwine", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not isospectral" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_a2_no_node_in_support_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["a2", "--nodes", "2", "--replicates", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no quadrature nodes" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_validate(tmp_path):
    rc = main(["validate", "--out", str(tmp_path / "out")])
    assert rc == 0
    records = read_jsonl(tmp_path / "out" / "validate.jsonl")
    assert all(r["ok"] for r in records)
    (theta,) = [r for r in records if r["check"] == "theta_equivariance"]
    assert theta["value"] <= theta["tol"] <= 1e-12


def test_cli_validate_bracket_file_of_other_shape(tmp_path):
    # every check, the zero-bracket flatness among them, runs at the configured (m, k) = (5, 2)
    (tmp_path / "b.bracket").write_text(bracket_to_text(random_bracket(5, 2, np.random.default_rng(3))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket.file = b.bracket\n")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    records = read_jsonl(tmp_path / "out" / "validate.jsonl")
    assert len(records) == 8 and all(r["ok"] for r in records)


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cutoff.r1sq = -2\n")
    rc = main(["a2", "--config", str(cfg)])
    assert rc == 2
    assert "cutoff.r1sq" in capsys.readouterr().err


@pytest.mark.parametrize("s_list", ["1,2,3", "1,2,nan,8,16", "0,1,2,4,8"])
def test_cli_bad_scale_list_exit_code(tmp_path, capsys, s_list):
    # too few scales, a non-finite scale, a zero scale: configuration errors, not crashes
    rc = main(["sweep", "--s-list", s_list, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sweep.s_list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_nodes_above_sampler_limit_exit_code(tmp_path, capsys):
    assert main(["a2", "--nodes", str(2**30 + 1), "--out", str(tmp_path / "out")]) == 2
    assert "quadrature.nodes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["a2", "sweep"])
def test_cli_too_many_dimensions_exit_code(tmp_path, capsys, command):
    # m + k = 31 + 2 is one more than the Sobol' sampler's 32 dimensions
    (tmp_path / "wide.bracket").write_text(bracket_to_text(_two_dim_bracket(31)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket.file = wide.bracket\n" + FAST_QUAD)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "m + k = 33" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reproduce_all_a2_records_match_cli(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_QUAD)
    assert main(["a2", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 0
    (cli_rec,) = read_jsonl(tmp_path / "cli" / "a2.jsonl")
    script = load_script("reproduce_all")
    monkeypatch.chdir(tmp_path)
    script.run(["--fast", "--out", "script"])  # relative: taken from the working directory
    out = tmp_path / "script"
    for art in ("brackets.jsonl", "validate.jsonl", "sweep.jsonl", "sweep.csv", "intertwine.jsonl"):
        assert (out / art).is_file()
    for name in ("cross2", "quaternion"):
        *records, pair = read_jsonl(out / f"a2_{name}" / "a2.jsonl")
        assert [r["bracket"] for r in records] == ["bracket", "bracket2"]
        for rec in records:
            assert set(rec) == set(cli_rec) | {"bracket"}
            assert len(rec["inside_fractions"]) == 4  # --fast: 4 replicates
            assert rec["preflight_deviation"] < 1e-12  # the CLI runs the preflight
        assert pair["kind"] == "pair" and pair["isospectral"] and pair["consistent"]


def test_a2_convergence_script(capsys):
    script = load_script("a2_convergence")
    assert script.run(["--min-exp", "10", "--max-exp", "11", "--replicates", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "n_nodes,a2,stderr,wall_time"
    assert [row.split(",")[0] for row in rows] == ["1024", "2048"]
    assert all(float(row.split(",")[1]) > 0.0 for row in rows)


def test_cli_missing_config_file():
    assert main(["a2", "--config", "/nonexistent/path.cfg"]) == 2


def test_cli_bad_thread_count_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISOPHASAL_THREADS", "abc")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_QUAD)
    assert main(["a2", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "ISOPHASAL_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bracket_file_with_nan_exit_code(tmp_path, capsys):
    (tmp_path / "nan.txt").write_text("3 1\n1 2 3 nan\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket.file = nan.txt\n" + FAST_QUAD)
    assert main(["a2", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "line 2 '1 2 3 nan'" in capsys.readouterr().err
