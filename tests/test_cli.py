"""End-to-end tests of the command line, in-process: ``simulate`` then ``fit``,
and the manifests of ``study`` and ``tables``."""

import json

import pytest

from zipcrt import cli, fit_zip, mc, read_dataset


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
    # no structural zeros in the design; with this seed the control arm has
    # no more zeros than a Poisson model predicts, though it has zeros
    code_sim, code_fit, rows, err, fit = simulate_then_fit(
        tmp_path, capsys, 20, 41, p1=0.0, q=0.0
    )
    assert (code_sim, code_fit) == (0, 0)
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


ENGINE_FIELDS = {
    "name": "cluster-sum", "version": 1, "stream_tag": mc.STREAM_TAG, "chunk_replicates": 256,
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
    assert cli.main(["tables", "--which", "table1", "--seed", "3", "--out", prefix]) == 0
    manifest = json.loads((tmp_path / "out.table1.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "tables"
    assert manifest["engine"] == ENGINE_FIELDS
