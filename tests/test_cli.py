"""End-to-end tests of the command line, in-process: ``simulate`` then ``fit``,
config and argument errors, and the manifests of ``simulate``, ``study`` and
``tables``."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipcrt
from zipcrt import ConfigError, cli, fit_zip, mc, read_dataset, reproduce_tables, simulate

from conftest import NOT_UTF8, first_seed, grid_design, zero_states

# a child interpreter imports the zipcrt under test
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(zipcrt.__file__).parents[1]), os.environ.get("PYTHONPATH"),
    ])),
)


def design_file(tmp_path, **overrides):
    config = {
        "mu1": 1.0, "beta2": -0.431, "p1": 0.5, "q": 0.5,
        "rho_s": 0.05, "rho_u": 0.05, "r_bar": 0.5,
        "cluster_size": {"kind": "discrete_uniform", "lo": 34, "hi": 56},
    }
    config.update(overrides)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def simulate_then_fit(tmp_path, capsys, clusters, seed, **overrides):
    """Exit codes of both commands, the fit's stdout rows and its stderr."""
    csv = str(tmp_path / "data.csv")
    code_sim = cli.main([
        "simulate", "--config", design_file(tmp_path, **overrides),
        "--clusters", str(clusters), "--seed", str(seed), "--out", csv,
    ])
    capsys.readouterr()
    code_fit = cli.main(["fit", "--data", csv])
    captured = capsys.readouterr()
    rows = {line.split(",")[0]: line.split(",")[1:] for line in captured.out.splitlines()}
    return code_sim, code_fit, rows, captured.err, fit_zip(read_dataset(csv))


def test_fit_prints_the_estimates(tmp_path, capsys):
    code_sim, code_fit, rows, err, fit = simulate_then_fit(tmp_path, capsys, 30, 5)
    assert (code_sim, code_fit) == (0, 0)
    for i, name in enumerate(("beta1", "beta2")):
        estimate, se_naive, se_jack = (float(v) for v in rows[name])
        assert estimate == pytest.approx(fit.beta_hat[i], rel=1e-5)
        assert se_naive == pytest.approx(fit.se_naive[i], rel=1e-5)
        assert se_jack == pytest.approx(fit.se_jackknife[i], rel=1e-5)
    for i, name in enumerate(("p1_hat", "p2_hat")):
        assert float(rows[name][0]) == pytest.approx(fit.p_hat[i], rel=1e-5)
        assert fit.p_hat[i] > 0.0
    assert rows["naive"][1] == "t(28)" and rows["jackknife"][1] == "t(28)"
    assert err == ""


def test_boundary_p_hat_warns(tmp_path, capsys):
    # no structural zeros in the design; the seed is the first at which the
    # control arm has zeros but no more than a Poisson model predicts, and
    # the intervention arm has more
    scenario = ("boundary", "interior")
    seed = first_seed(
        grid_design(rho=0.05, p1=0.0, q=0.0), 20, lambda d: zero_states(d) == scenario
    )
    code_sim, code_fit, rows, err, fit = simulate_then_fit(
        tmp_path, capsys, 20, seed, p1=0.0, q=0.0
    )
    assert (code_sim, code_fit) == (0, 0)
    assert zero_states(read_dataset(str(tmp_path / "data.csv"))) == scenario
    assert fit.p_hat[0] == 0.0 and fit.p_hat[1] > 0.0
    assert not fit.degenerate
    assert rows["p1_hat"] == ["0", "", ""]
    assert rows["alpha1"][0] == "-inf"
    assert float(rows["beta2"][0]) == pytest.approx(fit.beta_hat[1], rel=1e-5)
    assert "warning: p1_hat is on the boundary 0" in err
    assert "p2_hat" not in err
    assert "degenerate" not in err


def test_fit_rejects_a_cluster_id_outside_int64(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("cluster_id,arm,y\n0,0,1\n9223372036854775808,1,2\n", encoding="utf-8")
    assert cli.main(["fit", "--data", str(csv)]) == 2
    assert "cluster id 9223372036854775808 outside the int64 range" in capsys.readouterr().err


@pytest.mark.parametrize("body, line", NOT_UTF8, ids=["header", "middle", "last"])
def test_fit_of_a_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, body, line):
    path = tmp_path / "latin1.csv"
    path.write_bytes(body)
    assert cli.main(["fit", "--data", str(path)]) == 2
    assert f"latin1.csv:{line}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("kind, present, missing", [
    ("discrete_uniform", {"lo": 34}, "hi"),
    ("discrete_uniform", {"hi": 56}, "lo"),
    ("truncated_poisson", {"lo": 20, "hi": 70}, "rate"),
    ("fixed", {}, "m"),
], ids=["no-hi", "no-lo", "no-rate", "no-m"])
def test_incomplete_cluster_size_is_a_config_error(tmp_path, capsys, kind, present, missing):
    # a traceback (KeyError) before; now a usage error that names the key
    config = design_file(tmp_path, cluster_size={"kind": kind, **present})
    assert cli.main(["samplesize", "--config", config]) == 2
    err = capsys.readouterr().err
    assert f"cluster_size of kind {kind} is missing keys: ['{missing}']" in err


@pytest.mark.parametrize("kind, keys, stray", [
    ("fixed", {"m": 5, "lo": 30, "hi": 80, "rate": 45}, ["hi", "lo", "rate"]),
    ("discrete_uniform", {"lo": 34, "hi": 56, "rate": 45}, ["rate"]),
    ("truncated_poisson", {"rate": 45, "lo": 20, "hi": 70, "m": 40}, ["m"]),
])
def test_keys_of_another_kind_are_a_config_error(tmp_path, capsys, kind, keys, stray):
    # the fixed case was sized as fixed(5) with exit code 0
    config = design_file(tmp_path, cluster_size={"kind": kind, **keys})
    assert cli.main(["samplesize", "--config", config]) == 2
    assert f"cluster_size of kind {kind} does not take keys: {stray}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("lo", 34.9), ("hi", 56.5), ("lo", True), ("hi", False), ("lo", "34"), ("lo", None),
])
def test_fractional_or_boolean_cluster_size_is_a_config_error(tmp_path, capsys, key, value):
    # {"lo": 34.9} was sized as DU(34, 56), and true (also from --set
    # cluster_size.lo=true) as 1, with exit code 0
    config = design_file(
        tmp_path, cluster_size={"kind": "discrete_uniform", "lo": 34, "hi": 56, key: value}
    )
    assert cli.main(["samplesize", "--config", config]) == 2
    assert f"cluster_size.{key} must be a whole number, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, keys", [
    ("discrete_uniform", {"lo": 34.0, "hi": 56}),
    ("truncated_poisson", {"rate": 45, "lo": 20, "hi": 70.0}),
    ("fixed", {"m": 45.0}),
])
def test_whole_number_floats_are_cluster_sizes(tmp_path, capsys, kind, keys):
    outputs = []
    for spec in (keys, {k: int(v) for k, v in keys.items()}):
        config = design_file(tmp_path, cluster_size={"kind": kind, **spec})
        assert cli.main(["samplesize", "--config", config]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [0, -5])
@pytest.mark.parametrize("command", ["study", "tables"])
def test_workers_below_one_are_a_config_error(tmp_path, capsys, command, workers):
    # both ran serially with exit code 0
    if command == "study":
        argv = ["study", "--config", design_file(tmp_path), "--reps", "20", "--seed", "1"]
    else:
        argv = ["tables", "--which", "table1", "--reps", "20", "--seed", "1"]
    assert cli.main(argv + ["--workers", str(workers)]) == 2
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_negative_table_replications_are_a_config_error(tmp_path, capsys):
    assert cli.main(["tables", "--which", "table1", "--reps", "-3"]) == 2
    assert "replications must be >= 0, got -3" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        reproduce_tables(["table1"], -1)


def test_simulate_manifest_records_the_generator(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = cli.main([
        "simulate", "--config", design_file(tmp_path), "--clusters", "6", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text(encoding="utf-8"))
    assert (manifest["command"], manifest["seed"]) == ("simulate", 3)
    assert manifest["generator"] == {
        "name": "subject-array", "version": 4, "stream_tag": simulate.TRIAL_STREAM_TAG,
    }
    assert "engine" not in manifest


ENGINE_FIELDS = {
    "name": "cluster-sum", "version": 4, "stream_tag": mc.STREAM_TAG, "chunk_replicates": 256,
}


def test_study_manifest_records_the_engine(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = cli.main([
        "study", "--config", design_file(tmp_path), "--reps", "20", "--sizing", "t",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text(encoding="utf-8"))
    assert (manifest["command"], manifest["seed"]) == ("study", 3)
    assert manifest["engine"] == ENGINE_FIELDS
    header, row = out.read_text(encoding="utf-8").splitlines()
    assert dict(zip(header.split(","), row.split(",")))["replications"] == "20"


def test_tables_manifest_records_the_engine(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    assert cli.main(["tables", "--which", "table1,table3-icc", "--seed", "3", "--out", prefix]) == 0
    for table in ("table1", "table3-icc"):
        manifest = json.loads(
            (tmp_path / f"out.{table}.csv.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["command"] == "tables"
        assert manifest["engine"] == ENGINE_FIELDS
        # table3-icc is a statistic of generate_trial's datasets
        assert manifest["generator"] == cli._GENERATOR


def test_tables_read_back_as_csv(tmp_path, capsys):
    # the distribution labels hold commas, so they must be quoted
    prefix = str(tmp_path / "out")
    code = cli.main([
        "tables", "--which", "table1,table2,table3-icc", "--reps", "20", "--seed", "3",
        "--out", prefix,
    ])
    assert code == 0
    value_columns = {
        "table1": mc._study_columns(True)[5:],
        "table2": mc._study_columns(True)[5:],
        "table3-icc": ["rho_hat_poisson", "rho_limit_poisson"],
    }
    labels = {label for label, _ in mc._GRID_DISTRIBUTIONS}
    for table, columns in value_columns.items():
        with open(f"{prefix}.{table}.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == (20 if table == "table3-icc" else 30)
        for row in rows:
            assert None not in row and None not in row.values()  # no field too many or too few
            assert row["distribution"] in labels
            assert int(row["n_clusters"]) >= 2
            assert all(0.0 <= float(row[c]) <= 1.0 for c in columns)


NO_SCIPY_CHILD = '''
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any import of scipy now fails
from zipcrt import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps(outputs))
'''


def test_the_commands_run_without_scipy(tmp_path, capsys):
    # scipy is a test dependency only: every command must give the same
    # output in a child interpreter that cannot import it
    (tmp_path / "poisson").mkdir()
    poisson = design_file(
        tmp_path / "poisson",
        cluster_size={"kind": "truncated_poisson", "rate": 45, "lo": 20, "hi": 70},
    )
    uniform = design_file(tmp_path)
    data = str(tmp_path / "data.csv")
    commands = [
        ["samplesize", "--config", poisson],
        ["samplesize", "--config", uniform],
        ["simulate", "--config", uniform, "--clusters", "30", "--seed", "5", "--out", data],
        ["fit", "--data", data],
        ["study", "--config", uniform, "--reps", "20", "--sizing", "t", "--seed", "1"],
        ["tables", "--which", "table3-icc", "--seed", "4"],
    ]
    expected = []
    for argv in commands:
        expected.append([cli.main(argv), capsys.readouterr().out])
    written = Path(data).read_bytes()
    child = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=CHILD_ENV, check=True, timeout=120,
    )
    assert [code for code, _ in expected] == [0] * len(commands)
    assert expected[0] != expected[1]
    assert json.loads(child.stdout) == expected
    assert Path(data).read_bytes() == written


def test_importing_the_cli_loads_no_scipy():
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, zipcrt.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=CHILD_ENV, check=True, timeout=60,
    )
    assert child.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_process_pool():
    # only run_power_study with workers > 1 needs multiprocessing, so the
    # pool's import is left to it rather than charged to every start-up
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, zipcrt.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"],
        capture_output=True, text=True, env=CHILD_ENV, check=True, timeout=60,
    )
    assert child.stdout.strip() == "[]"
