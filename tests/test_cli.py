"""End-to-end tests of the command line, in-process: ``simulate`` then ``fit``,
config and argument errors, the rows of ``sweep``, and the manifests of
``simulate``, ``sweep``, ``study`` and ``tables``."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zipcrt
from zipcrt import (
    ClusterSizeModel, ConfigError, cli, fit_zip, mc, read_dataset, reproduce_tables,
    sample_size_normal, sample_size_t, simulate,
)

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


def test_a_set_override_does_not_carry_into_a_later_call(tmp_path, capsys):
    # main builds its parser once per process; each call's --set list starts empty
    config = design_file(tmp_path)
    assert cli.main(["samplesize", "--config", config, "--set", "q=0.3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "q = 0.3"
    assert cli.main(["samplesize", "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "q = 0.5"


def test_fit_prints_the_estimates(tmp_path, capsys):
    code_sim, code_fit, rows, err, fit = simulate_then_fit(tmp_path, capsys, 30, 5)
    assert (code_sim, code_fit) == (0, 0)
    for i, name in enumerate(("beta1", "beta2")):
        estimate, se_naive, se_jack = (float(v) for v in rows[name])
        assert estimate == pytest.approx(fit.beta_hat[i], rel=1e-5)
        assert se_naive == pytest.approx(fit.se("naive")[i], rel=1e-5)
        assert se_jack == pytest.approx(fit.se("jackknife")[i], rel=1e-5)
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


@pytest.mark.parametrize("setting, key", [
    ("mu1=true", "mu1"),
    ("p1=false", "p1"),
    ('alpha="0.05"', "alpha"),
    ("beta2=null", "beta2"),
    ("rho_u=[0.05]", "rho_u"),
    ("cluster_size.rate=true", "cluster_size.rate"),
])
def test_a_design_number_that_is_not_a_json_number_is_a_config_error(
    tmp_path, capsys, setting, key
):
    # mu1=true and p1=false were sized as mu1 = 1 and p1 = 0, with exit code 0
    config = design_file(
        tmp_path, cluster_size={"kind": "truncated_poisson", "rate": 45, "lo": 20, "hi": 70}
    )
    assert cli.main(["samplesize", "--config", config, "--set", setting]) == 2
    assert f"error: {key} must be a number, got " in capsys.readouterr().err


def test_a_null_optional_number_is_an_absent_one(tmp_path, capsys):
    outputs = []
    for settings in ([], ["--set", "r_bar=null", "--set", "alpha=null", "--set", "p2=null"]):
        assert cli.main(["samplesize", "--config", design_file(tmp_path), *settings]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("design", [
    *(design for _, design in mc._grid_cells(mc._GRID_DISTRIBUTIONS)),
    grid_design(cluster_sizes=ClusterSizeModel.fixed(20)),
    grid_design(cluster_sizes=ClusterSizeModel.truncated_poisson(12.5, 5, 30)),
], ids=[*(f"grid-{i}" for i in range(30)), "fixed-20", "trunpois-12.5"])
def test_the_design_dict_reads_back_to_an_equal_design(design):
    # the dict a manifest digests is a config: each parameter once, and the
    # size law's own keys, so nothing in it can disagree or be rejected
    config = cli._design_to_dict(design)
    assert cli._design_from_config(json.loads(json.dumps(config))) == design


@pytest.mark.parametrize("rate", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["samplesize", "simulate"])
def test_a_non_finite_truncated_poisson_rate_is_a_domain_error(tmp_path, capsys, command, rate):
    # samplesize crashed in math.ceil; simulate wrote clusters all of size lo
    argv = [command, "--config", design_file(
        tmp_path, cluster_size={"kind": "truncated_poisson", "rate": 45, "lo": 20, "hi": 70}
    ), "--set", f"cluster_size.rate={rate}"]
    if command == "simulate":
        argv += ["--clusters", "10", "--seed", "1", "--out", str(tmp_path / "data.csv")]
    assert cli.main(argv) == 2
    assert "truncated_poisson requires a finite rate > 0" in capsys.readouterr().err
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"mu1": None, "beta1": 1000}, "'beta1'=1000.0 makes the control mean exp(1000) overflow"),
    ({"mu1": 1e300, "beta2": 100, "p1": 0, "q": 0},
     "'beta2'=100.0 makes the intervention mean exp(790.776) overflow"),
], ids=["beta1", "beta2"])
def test_an_arm_mean_that_overflows_is_a_domain_error(tmp_path, capsys, overrides, message):
    # both died with an OverflowError traceback and exit code 1
    assert cli.main(["samplesize", "--config", design_file(tmp_path, **overrides)]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("p1", [0.0, 0.5])
def test_a_mean_whose_square_overflows_is_a_domain_error(tmp_path, capsys, p1):
    # died with an OverflowError traceback and exit code 1
    config = design_file(tmp_path, mu1=1e300, p1=p1, q=p1)
    assert cli.main(["samplesize", "--config", config]) == 2
    assert "error: mean mu=1e+300 is too large: mu**2 overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["samplesize"], ["simulate", "--clusters", "6", "--seed", "1"], ["study", "--reps", "20"],
], ids=["samplesize", "simulate", "study"])
@pytest.mark.parametrize("mu1, hi", [(1e19, 5), (3e17, 60)])
def test_a_cluster_mean_beyond_the_draw_bound_is_a_domain_error(
    tmp_path, capsys, command, mu1, hi
):
    # simulate and study died with numpy's "lam value too large" and exit
    # code 1, while samplesize sized the design
    sizes = {"kind": "discrete_uniform", "lo": 3, "hi": hi}
    config = design_file(tmp_path, mu1=mu1, cluster_size=sizes)
    out = ["--out", str(tmp_path / "out.csv")] if command[0] == "simulate" else []
    assert cli.main([command[0], "--config", config, *command[1:], *out]) == 2
    assert f"error: 'mu1'={mu1} with cluster_size.hi={hi}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["samplesize"], ["study", "--sizing", "t", "--reps", "20", "--seed", "1"],
], ids=["samplesize", "study"])
def test_an_alpha_whose_normal_quantile_rounds_to_1_is_a_domain_error(tmp_path, capsys, command):
    # died with a StatisticsError traceback and exit code 1
    argv = [command[0], "--config", design_file(tmp_path), "--set", "alpha=1e-300", *command[1:]]
    assert cli.main(argv) == 2
    assert "error: normal quantile needs 0 < prob < 1, got 1.0" in capsys.readouterr().err


def test_a_fit_alpha_whose_normal_quantile_rounds_to_1_is_a_domain_error(tmp_path, capsys):
    # died with a StatisticsError traceback and exit code 1
    data = str(tmp_path / "data.csv")
    assert cli.main(["simulate", "--config", design_file(tmp_path), "--clusters", "30",
                     "--seed", "5", "--out", data]) == 0
    capsys.readouterr()
    assert cli.main(["fit", "--data", data, "--reference", "z", "--alpha", "1e-300"]) == 2
    assert "error: normal quantile needs 0 < prob < 1, got 1.0" in capsys.readouterr().err


@pytest.mark.parametrize("reference", ["z", "t"])
def test_a_fit_with_a_bad_alpha_prints_nothing(tmp_path, capsys, reference):
    # printed the estimate rows and the test header, then exited 2
    data = str(tmp_path / "data.csv")
    assert cli.main(["simulate", "--config", design_file(tmp_path), "--clusters", "30",
                     "--seed", "5", "--out", data]) == 0
    capsys.readouterr()
    assert cli.main(["fit", "--data", data, "--reference", reference, "--alpha", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "quantile needs 0 < prob < 1, got 1.0" in captured.err


@pytest.mark.parametrize("beta2", ["1e-300", "1e-160", "1e-10"])
def test_an_effect_too_small_to_size_is_a_domain_error(tmp_path, capsys, beta2):
    # 1e-300 and 1e-160 died with a ZeroDivisionError and an OverflowError
    # traceback and exit code 1; 1e-10 exited 0 with N_t below N_z
    config = design_file(tmp_path)
    assert cli.main(["samplesize", "--config", config, "--set", f"beta2={beta2}"]) == 2
    message = f"beta2 = {float(beta2)} is too small an effect to size"
    assert f"error: {message}" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", config, "--set", f"beta2={beta2}", "--q", "0.5"]) == 2
    assert capsys.readouterr().out.splitlines()[1].startswith(f'0.5,,,,"{message}')


def test_a_cluster_mean_below_the_draw_bound_simulates(tmp_path, capsys):
    sizes = {"kind": "discrete_uniform", "lo": 3, "hi": 5}
    out = str(tmp_path / "data.csv")
    config = design_file(tmp_path, mu1=1e17, cluster_size=sizes)
    assert cli.main(["simulate", "--config", config, "--clusters", "6", "--seed", "1",
                     "--out", out]) == 0
    assert read_dataset(out).outcomes.max() > 1e16


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
        "name": "subject-array", "version": 7, "stream_tag": simulate.TRIAL_STREAM_TAG,
    }
    assert "engine" not in manifest


# sha256 of outputs on the reference paths the seeded table hashes of
# test_mc miss (those cover the normal reference and t(N - 2) at alpha
# 0.05), taken before the reference was named by its df alone: a fit's rows
# under the normal at alpha 0.1 and under t(N - 4), and a t-sized null study
# at alpha 0.1 tested against t(N - 4)
REFERENCE_PINS = {
    "fit-z": "eb1ec79957d21fb04f2bf07a589ac9fcd0e204c82094da037f30cbebeca1ab79",
    "fit-t-n-4": "4c1d09c5c80aa64054b9b4c6b5ee50c37845c264f038135b7626076304e03c75",
    "study-null-t-n-4": "de5f2fb96d57834b46fcecf0e1a8850435e46028fcf020bb53dcd170d8b9dfac",
}


def test_seeded_reference_paths_pinned(tmp_path, capsys):
    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    config, data, report = design_file(tmp_path), tmp_path / "data.csv", tmp_path / "study.csv"
    assert cli.main([
        "simulate", "--config", config, "--clusters", "30", "--seed", "5", "--out", str(data),
    ]) == 0
    capsys.readouterr()
    got = {}
    for name, options in (
        ("fit-z", ["--reference", "z", "--alpha", "0.1"]),
        ("fit-t-n-4", ["--reference", "t", "--df-rule", "n-4"]),
    ):
        assert cli.main(["fit", "--data", str(data), *options]) == 0
        got[name] = sha256(capsys.readouterr().out)
    assert cli.main([
        "study", "--config", config, "--set", "alpha=0.1", "--reps", "600", "--sizing", "t",
        "--df-rule", "n-4", "--null", "--seed", "7", "--out", str(report),
    ]) == 0
    got["study-null-t-n-4"] = sha256(report.read_text(encoding="utf-8"))
    assert got == REFERENCE_PINS


ENGINE_FIELDS = {
    "name": "cluster-sum", "version": 7, "stream_tag": mc.STREAM_TAG, "chunk_replicates": 256,
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


def test_study_manifest_records_the_layer_seconds(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert cli.main([
        "study", "--config", design_file(tmp_path), "--reps", "20", "--seed", "3", "--out", str(out),
    ]) == 0
    manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text(encoding="utf-8"))
    seconds = manifest["seconds"]
    assert sorted(seconds) == ["draw", "fit", "wald"]
    assert all(isinstance(s, float) and s > 0.0 for s in seconds.values())


def test_tables_manifest_records_the_layer_seconds_of_its_studies(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    assert cli.main([
        "tables", "--which", "table1,table3-icc", "--reps", "20", "--seed", "3", "--out", prefix,
    ]) == 0
    manifests = {
        table: json.loads((tmp_path / f"out.{table}.csv.manifest.json").read_text(encoding="utf-8"))
        for table in ("table1", "table3-icc")
    }
    seconds = manifests["table1"]["seconds"]
    assert sorted(seconds) == ["draw", "fit", "wald"]
    assert all(isinstance(s, float) and s > 0.0 for s in seconds.values())
    # the ICC table runs no study
    assert "seconds" not in manifests["table3-icc"]


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
    labels = "distribution,rho_s,rho_u,q,n_clusters"
    rates = "type_i_naive,power_naive,type_i_jackknife,power_jackknife,mc_standard_error"
    headers = {
        "table1": f"{labels},{rates}",
        "table2": f"{labels},{rates}",
        "table3-icc": f"{labels},rho_hat_poisson,rho_limit_poisson",
    }
    grid_labels = {label for label, _ in mc._GRID_DISTRIBUTIONS}
    for table, header in headers.items():
        with open(f"{prefix}.{table}.csv", encoding="utf-8", newline="") as handle:
            assert handle.readline() == header + "\n"
            handle.seek(0)
            rows = list(csv.DictReader(handle))
        assert len(rows) == (20 if table == "table3-icc" else 30)
        columns = header.split(",")[5:]
        for row in rows:
            assert None not in row and None not in row.values()  # no field too many or too few
            assert row["distribution"] in grid_labels
            assert int(row["n_clusters"]) >= 2
            assert all(0.0 <= float(row[c]) <= 1.0 for c in columns)
    # without --reps a study table has only its label columns
    assert cli.main(["tables", "--which", "table1,table2", "--out", prefix]) == 0
    for table in ("table1", "table2"):
        with open(f"{prefix}.{table}.csv", encoding="utf-8") as handle:
            assert handle.readline() == labels + "\n"


def test_sweep_rows_and_manifest(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    sweep = ["sweep", "--config", design_file(tmp_path), "--out", str(out), "--q"]
    assert cli.main([*sweep, "0.5,1.5"]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    with open(out, encoding="utf-8", newline="") as handle:
        normal, out_of_range = csv.DictReader(handle)
    design = grid_design(rho=0.05)
    assert normal == {
        "q": "0.5", "p2": f"{design.p2:.6g}", "n_z": str(sample_size_normal(design).n_clusters),
        "n_t": str(sample_size_t(design).n_clusters), "error": "",
    }
    assert out_of_range == {
        "q": "1.5", "p2": "", "n_z": "", "n_t": "", "error": "q must lie in [0, 1], got 1.5",
    }
    manifest_path = tmp_path / "sweep.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert (manifest["command"], manifest["seed"]) == ("sweep", None)
    # the digest is of the resolved design and q list: the same inputs give it again
    assert cli.main([*sweep, "0.5,1.5"]) == 0
    assert json.loads(manifest_path.read_text(encoding="utf-8"))["config_digest"] == (
        manifest["config_digest"]
    )
    assert cli.main([*sweep, "0.5"]) == 0
    assert json.loads(manifest_path.read_text(encoding="utf-8"))["config_digest"] != (
        manifest["config_digest"]
    )


def test_a_sweep_row_whose_t_sizing_fails_gives_the_error(tmp_path, capsys):
    # the row left n_t blank and its error empty; samplesize exits 2 on the design
    config = design_file(tmp_path, mu1=10, beta2=-3, p1=0.1, q=0.02)
    assert cli.main(["sweep", "--config", config, "--q", "0.02"]) == 0
    error = "insufficient clusters for a t-based size: normal pass gave 1 clusters (df=-1)"
    assert capsys.readouterr().out.splitlines()[1] == f'0.02,0.152412,1,,"{error}"'
    assert cli.main(["samplesize", "--config", config]) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("which", [",", " , ,"])
def test_an_empty_table_selection_is_a_config_error(capsys, which):
    # it wrote nothing and exited 0
    assert cli.main(["tables", "--which", which, "--seed", "1"]) == 2
    assert "error: --which produced an empty list" in capsys.readouterr().err


def test_a_large_mean_design_sizes_simulates_and_fits(tmp_path, capsys):
    # samplesize exited 2: exp(log(50000)) missed (1 - p1) * lam by more than 1e-12
    assert cli.main(["samplesize", "--config", design_file(tmp_path, mu1=50000, p1=0.3)]) == 0
    assert "N_t = 11 (df = 6)" in capsys.readouterr().out
    code_sim, code_fit, rows, _, _ = simulate_then_fit(tmp_path, capsys, 30, 5, mu1=50000, p1=0.3)
    assert (code_sim, code_fit) == (0, 0)
    assert float(rows["beta1"][0]) == pytest.approx(math.log(50000), abs=0.5)

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
    # studies run in one process; nothing may charge every start-up the
    # import of multiprocessing or of a process pool
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, zipcrt.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"],
        capture_output=True, text=True, env=CHILD_ENV, check=True, timeout=60,
    )
    assert child.stdout.strip() == "[]"
