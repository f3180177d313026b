import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fslm
from fslm.cli import build_parser, main
from fslm import io as fio
from fslm import grid_contiguity, row_standardize, weights_from_edges


def run(argv):
    return main([str(a) for a in argv])


def hash_dir(path):
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run(["simulate", "--rho", "0.5", "--seed", "3", "--out", out]) == 0
    return out


def test_simulate_file_inventory(bundle):
    names = sorted(p.name for p in bundle.iterdir())
    assert names == ["curves.csv", "response.csv", "truth.json", "weights.csv"]
    with open(bundle / "curves.csv") as f:
        assert sum(1 for _ in f) == 122  # header + 121 units
    y = fio.read_response_csv(bundle / "response.csv")
    assert y.size == 121


def test_simulate_accepts_paper_rhos(tmp_path):
    for rho in ("0.3", "0.5", "0.7"):
        assert run(["simulate", "--rho", rho, "--out", tmp_path / rho]) == 0


def test_simulate_rejects_bad_rho(tmp_path):
    assert run(["simulate", "--rho", "1.5", "--out", tmp_path / "x"]) == 2


def test_simulate_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--rho", "0.4", "--seed", "9", "--out", a])
    run(["simulate", "--rho", "0.4", "--seed", "9", "--out", b])
    assert hash_dir(a) == hash_dir(b)


def test_fit_bayes_report(bundle, tmp_path):
    out = tmp_path / "fit"
    code = run(
        ["fit", "--data", bundle, "--method", "normal-kernel",
         "--n-iter", "800", "--burn-in", "200", "--seed", "1", "--out", out]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    entry = report["normal-kernel"]
    assert len(entry["beta_mean"]) == 7
    for key in ("sigma2_mean", "rho_mean", "bic", "acceptance_rate"):
        assert key in entry
    with open(out / "trace_normal-kernel.csv") as f:
        header = next(csv.reader(f))
    assert header == (
        ["iter"] + [f"beta_{j}" for j in range(1, 8)] + ["sigma2", "rho", "accepted"]
    )


def test_fit_ml_report_has_no_acceptance_rate(bundle, tmp_path):
    out = tmp_path / "ml"
    assert run(["fit", "--data", bundle, "--method", "ml", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "acceptance_rate" not in report["ml"]
    assert "bic" in report["ml"]


def test_fit_determinism(bundle, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run(
            ["fit", "--data", bundle, "--method", "uniform-kernel",
             "--n-iter", "400", "--burn-in", "100", "--seed", "5", "--out", out]
        )
        outs.append(hash_dir(out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("burn_in, block", [(100, 10), (500, 50), (5000, 100)])
def test_fit_adapts_at_least_ten_times_in_burn_in(bundle, tmp_path, monkeypatch,
                                                  burn_in, block):
    import fslm.cli

    chains = []
    real = fslm.cli.run_mwg
    monkeypatch.setattr(fslm.cli, "run_mwg",
                        lambda data, prior, config: chains.append(real(data, prior, config))
                        or chains[-1])
    assert run(["fit", "--data", bundle, "--method", "normal-kernel",
                "--n-iter", burn_in + 10, "--burn-in", burn_in, "--out", tmp_path]) == 0
    # one tuning_trace entry per burn-in block
    assert len(chains[0].tuning_trace) == burn_in // block


def test_fit_svg_traces(bundle, tmp_path):
    out = tmp_path / "svg"
    run(
        ["fit", "--data", bundle, "--method", "normal-kernel", "--svg",
         "--n-iter", "300", "--burn-in", "100", "--out", out]
    )
    svg = (out / "trace_normal-kernel.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_table1_rows(tmp_path):
    out = tmp_path / "t1"
    code = run(
        ["table1", "--rho-list", "0.3,0.5", "--grid", "4x4",
         "--n-iter", "400", "--burn-in", "100", "--out", out]
    )
    assert code == 0
    with open(out / "table1.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 2 * 3  # header + 2 rhos x 3 methods
    assert rows[0][:2] == ["rho_true", "method"]
    assert "sd_rho" not in rows[0]


def test_table1_rows_are_the_fits_estimates(tmp_path, monkeypatch):
    import fslm.cli

    estimates = []
    real = fslm.cli._fit_one

    def recording(*args):
        estimate, chain = real(*args)
        estimates.append(estimate)
        return estimate, chain

    monkeypatch.setattr(fslm.cli, "_fit_one", recording)
    out = tmp_path / "t1"
    assert run(["table1", "--rho-list", "0.3,0.5", "--replicates", "1", "--grid", "4x4",
                "--basis-count", "4", "--n-iter", "300", "--burn-in", "100",
                "--out", out]) == 0
    with open(out / "table1.csv") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == len(estimates) == 2 * 3
    for row, e in zip(rows, estimates):
        assert [float(v) for v in row[2:]] == [*e.theta.beta, e.theta.sigma2,
                                               e.theta.rho, e.bic]


def test_table1_replicate_sd_columns(tmp_path):
    out = tmp_path / "t1r"
    run(
        ["table1", "--rho-list", "0.3", "--replicates", "2", "--grid", "4x4",
         "--n-iter", "300", "--burn-in", "100", "--out", out]
    )
    with open(out / "table1.csv") as f:
        header = next(csv.reader(f))
    assert "sd_rho" in header and "sd_sigma2" in header


def test_table1_empty_rho_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["table1", "--rho-list", "", "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_table1_repeated_rho_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["table1", "--rho-list", "0.3,0.5,0.30", "--grid", "4x4",
             "--n-iter", "60", "--burn-in", "20", "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert "repeat" in capsys.readouterr().err
    assert not (tmp_path / "x" / "table1.csv").exists()


def test_table1_rho_outside_domain_exits_2_before_any_fit(tmp_path, monkeypatch, capsys):
    import fslm.cli

    def no_fit(*args):
        raise AssertionError("a fit was run")

    monkeypatch.setattr(fslm.cli, "fit_ml", no_fit)
    monkeypatch.setattr(fslm.cli, "run_mwg", no_fit)
    assert run(["table1", "--rho-list", "0.3,1.2", "--grid", "4x4",
                "--out", tmp_path / "x"]) == 2
    assert "domain" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("rho", ["inf", "nan", "-0.5", "0.3,-0.5", "0.3,abc"])
def test_table1_bad_rho_exits_2_naming_rho(rho, tmp_path, capsys):
    # inf overflowed, and nan and -0.5 failed with numpy's messages, where
    # table1 derived each replicate's seed from rho
    try:
        code = run(["table1", "--rho-list", rho, "--grid", "4x4", "--out", tmp_path / "x"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "rho" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bad_chain_counts_exit_2_before_any_work(bundle, tmp_path, capsys):
    # a chain must keep two draws at least, or its sds are undefined
    for counts in (["--n-iter", "100", "--burn-in", "100"], ["--n-iter", "2", "--burn-in", "1"]):
        for name, argv in [
            ("table1", ["table1", "--rho-list", "0.3", "--grid", "4x4", "--basis-count", "4"]),
            ("fit", ["fit", "--data", bundle, "--method", "normal-kernel"]),
        ]:
            assert run(argv + counts + ["--out", tmp_path / name]) == 2
            assert "burn_in < n_iter" in capsys.readouterr().err
            assert not (tmp_path / name).exists()
        # ML alone runs no chain, so it ignores the chain counts
        assert run(["fit", "--data", bundle, "--method", "ml", *counts,
                    "--out", tmp_path / "ml"]) == 0


def test_moran_cli_path_graph(tmp_path, capsys):
    n = 8
    w = weights_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    values = np.array([1.0, -1.0] * (n // 2))
    fio.write_response_csv(tmp_path / "resp.csv", values)
    fio.write_weights_csv(tmp_path / "w.csv", w)
    assert run(
        ["moran", "--response", tmp_path / "resp.csv", "--weights", tmp_path / "w.csv"]
    ) == 0
    out = capsys.readouterr().out
    assert "moran_i=-1" in out


def test_moran_cli_constant_error(tmp_path):
    w = weights_from_edges(4, [(0, 1)])
    fio.write_response_csv(tmp_path / "resp.csv", np.ones(4))
    fio.write_weights_csv(tmp_path / "w.csv", w)
    assert run(
        ["moran", "--response", tmp_path / "resp.csv", "--weights", tmp_path / "w.csv"]
    ) == 2


def test_moran_cli_refuses_a_spread_whose_square_overflows(tmp_path, capsys):
    fio.write_response_csv(tmp_path / "resp.csv", np.array([1e200, -1e200, 0, 1, 2, 3, 4, 5, 6]))
    fio.write_weights_csv(tmp_path / "w.csv", grid_contiguity(3, 3))
    assert run(
        ["moran", "--response", tmp_path / "resp.csv", "--weights", tmp_path / "w.csv"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "spread is too large" in captured.err


def test_moran_cli_refuses_weights_whose_sum_overflows(tmp_path, capsys):
    path4 = "".join(f"{i},{j},1e308\n" for i, j in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(write_moran_inputs(tmp_path, "0,1\n1,2\n2,0\n3,5\n", path4)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "W's total weight or z'Wz overflows" in captured.err


def test_fit_on_z_whose_gram_matrix_is_singular_to_rounding_exits_3(tmp_path, capsys):
    # Z passes ML's singular-value ratio test, but Z'Z is singular to rounding
    bundle = tmp_path / "near-flat"
    assert run(["simulate", "--rho", "0.99", "--sigma2", "1e-8", "--noise-sd", "1e-8",
                "--seed", "3", "--out", bundle]) == 0
    capsys.readouterr()
    for method in ("ml", "normal-kernel"):
        out = tmp_path / method
        assert run(["fit", "--data", bundle, "--method", method, "--out", out]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: design matrix Z is rank deficient: "
            "Z'Z is singular to rounding\n")
        assert not out.exists()


def test_moran_cli_lattice_gradient(tmp_path, capsys):
    from fslm import grid_contiguity

    w = row_standardize(grid_contiguity(11, 11))
    fio.write_response_csv(tmp_path / "resp.csv", np.arange(121, dtype=float))
    fio.write_weights_csv(tmp_path / "w.csv", w)
    run(
        ["moran", "--response", tmp_path / "resp.csv", "--weights", tmp_path / "w.csv",
         "--permutations", "999", "--seed", "1"]
    )
    out = capsys.readouterr().out
    p = float([l for l in out.splitlines() if l.startswith("p_value=")][0]
              .split("=")[1].split()[0])
    assert p < 0.05


def test_config_file_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rho": 0.7, "seed": 21}))
    out1 = tmp_path / "from_config"
    run(["--config", config, "simulate", "--out", out1])
    truth = json.loads((out1 / "truth.json").read_text())
    assert float(truth["rho"]) == 0.7
    # explicit flag beats the config value
    out2 = tmp_path / "flag_wins"
    run(["--config", config, "simulate", "--rho", "0.2", "--out", out2])
    truth2 = json.loads((out2 / "truth.json").read_text())
    assert float(truth2["rho"]) == 0.2


@pytest.mark.parametrize("command, values", [
    (["simulate"], {"rho": 0.3, "seed": 4, "grid": "5x5", "noise_sd": 2}),
    (["fit", "--method", "normal-kernel"], {"svg": True, "n_iter": 300, "burn_in": 100}),
], ids=["simulate", "fit-switch"])
def test_config_and_equivalent_flags_write_the_same_bytes(bundle, tmp_path, command, values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    flags = [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
             for key, value in values.items()]
    if command[0] == "fit":
        command = [*command, "--data", bundle]
    assert run(["--config", config, *command, "--out", tmp_path / "config"]) == 0
    assert run([*command, *flags, "--out", tmp_path / "flags"]) == 0
    assert hash_dir(tmp_path / "config") == hash_dir(tmp_path / "flags")
    if values.get("svg"):
        assert (tmp_path / "config" / "trace_normal-kernel.svg").exists()


def test_config_values_do_not_outlast_their_call(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(tmp_path / "first"), "rho": 0.7}))
    assert run(["--config", config, "simulate", "--grid", "4x4"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--grid", "4x4"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert run(["simulate", "--grid", "4x4", "--out", tmp_path / "second"]) == 0
    assert float(json.loads((tmp_path / "second" / "truth.json").read_text())["rho"]) == 0.5
    assert build_parser() is build_parser()  # one parser per process


def test_edges_input_round_trip(tmp_path):
    edges_path = tmp_path / "edges.csv"
    with open(edges_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j"])
        for i in range(8):
            writer.writerow([i, i + 1])
    out = tmp_path / "sim"
    assert run(
        ["simulate", "--edges", edges_path, "--n-units", "9", "--rho", "0.3",
         "--out", out]
    ) == 0
    y = fio.read_response_csv(out / "response.csv")
    assert y.size == 9


def test_chain_csv_numbers_thinned_draws_by_iteration(tmp_path):
    from fslm import Chain

    chain = Chain(
        draws_beta=np.zeros((3, 1)),
        draws_sigma2=np.ones(3),
        draws_rho=np.full(3, 0.5),
        accepted=np.ones(3, dtype=bool),
        tuning_trace=np.array([0.1]),
        burn_in=0,
    )
    fio.write_chain_csv(tmp_path / "trace.csv", chain)
    with open(tmp_path / "trace.csv") as f:
        rows = list(csv.reader(f))
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]


def test_simulate_edges_matches_grid_bundle(tmp_path):
    from fslm import grid_contiguity

    w = grid_contiguity(11, 11)
    edges_path = tmp_path / "edges.csv"
    with open(edges_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["i", "j"])
        writer.writerows(zip(*np.nonzero(np.triu(w.entries))))
    grid, edges = tmp_path / "grid", tmp_path / "edges"
    assert run(["simulate", "--grid", "11x11", "--seed", "4", "--out", grid]) == 0
    assert run(["simulate", "--edges", edges_path, "--seed", "4", "--out", edges]) == 0
    assert hash_dir(grid) == hash_dir(edges)


@pytest.mark.parametrize("grid", ["1x1", "2x2"])
def test_simulate_rejects_too_few_units(tmp_path, grid):
    assert run(["simulate", "--grid", grid, "--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x").exists()


def test_fit_ml_rank_one_design_exits_3(tmp_path, capsys):
    # noiseless curves are all cos + sin, so Z has rank one
    bundle = tmp_path / "flat"
    assert run(["simulate", "--noise-sd", "0", "--out", bundle]) == 0
    code = run(["fit", "--data", bundle, "--method", "ml", "--out", tmp_path / "fit"])
    assert code == 3
    assert "rank deficient" in capsys.readouterr().err


def test_fit_all_on_rank_one_design_exits_3_before_any_chain_or_output(tmp_path, capsys,
                                                                      monkeypatch):
    bundle = tmp_path / "flat"
    assert run(["simulate", "--noise-sd", "0", "--out", bundle]) == 0
    chains = []
    real = fslm.cli.run_mwg
    monkeypatch.setattr(fslm.cli, "run_mwg", lambda *args: chains.append(args) or real(*args))
    out = tmp_path / "fit"
    code = run(["fit", "--data", bundle, "--method", "all", "--n-iter", "300",
                "--burn-in", "100", "--out", out])
    assert code == 3
    assert "rank deficient" in capsys.readouterr().err
    assert chains == [] and not out.exists()


def test_fit_whose_last_chain_fails_leaves_no_out(bundle, tmp_path, capsys, monkeypatch):
    kernels = []
    real = fslm.cli.run_mwg

    def failing_second_chain(data, prior, config):
        kernels.append(config.kernel)
        if len(kernels) == 2:
            raise np.linalg.LinAlgError("chain failed")
        return real(data, prior, config)

    monkeypatch.setattr(fslm.cli, "run_mwg", failing_second_chain)
    out = tmp_path / "fit"
    code = run(["fit", "--data", bundle, "--method", "all", "--n-iter", "300",
                "--burn-in", "100", "--out", out])
    assert code == 3
    assert "chain failed" in capsys.readouterr().err
    assert sorted(kernels) == ["normal", "uniform"] and not out.exists()


@pytest.mark.parametrize("flags, config, named", [
    (["--n-units", "50"], {}, ["--n-units", "--edges"]),
    ([], {"n_units": 50}, ["--n-units", "--edges"]),
    (["--grid", "5x5", "--edges", "EDGES"], {}, ["--grid", "--edges"]),
    (["--edges", "EDGES"], {"grid": "5x5"}, ["--grid", "--edges"]),
    (["--grid", "5x5"], {"edges": "EDGES"}, ["--grid", "--edges"]),
], ids=["n-units", "config-n-units", "grid-and-edges", "config-grid", "config-edges"])
def test_simulate_refuses_a_flag_it_would_ignore(tmp_path, capsys, flags, config, named):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n0,1\n1,2\n")
    config = {key: str(edges) if value == "EDGES" else value for key, value in config.items()}
    argv = [str(edges) if flag == "EDGES" else flag for flag in flags]
    if config:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", path, "simulate", *argv]
    else:
        argv = ["simulate", *argv]
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in named)
    assert not out.exists()


@pytest.mark.parametrize("side, basis_count", [(2, 7), (3, 9), (3, 8)],
                         ids=["n<k", "n=k", "n=k+1"])
def test_fit_too_few_units_exits_2(tmp_path, capsys, side, basis_count):
    # a fit needs a unit per basis coefficient, one for sigma2 and one for rho
    rng = np.random.default_rng(0)
    n = side * side
    bundle = tmp_path / "tiny"
    bundle.mkdir()
    t = np.arange(101.0)
    fio.write_curves_csv(bundle / "curves.csv", t, rng.standard_normal((n, t.size)))
    fio.write_response_csv(bundle / "response.csv", rng.standard_normal(n))
    fio.write_weights_csv(bundle / "weights.csv", row_standardize(grid_contiguity(side, side)))
    code = run(["fit", "--data", bundle, "--method", "ml", "--basis-count", basis_count,
                "--out", tmp_path / "fit"])
    assert code == 2
    assert f"{n} units are too few" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_fit_unlinked_bundle_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n")
    bundle = tmp_path / "unlinked"
    with pytest.warns(UserWarning, match="zero-neighbor"):
        assert run(["simulate", "--edges", edges, "--n-units", "20", "--out", bundle]) == 0
    code = run(["fit", "--data", bundle, "--method", "ml", "--out", tmp_path / "fit"])
    assert code == 2
    err = capsys.readouterr().err
    assert "weights.csv" in err and "rho is not identified" in err
    assert not (tmp_path / "fit").exists()


def test_fit_curves_and_response_row_counts_differ_exits_2(bundle, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("response.csv", "weights.csv"):
        (data / name).write_bytes((bundle / name).read_bytes())
    rows = (bundle / "curves.csv").read_text().splitlines(keepends=True)
    (data / "curves.csv").write_text("".join(rows[:-1]))  # the last unit dropped
    assert run(["fit", "--data", data, "--method", "ml", "--out", tmp_path / "fit"]) == 2
    err = capsys.readouterr().err
    assert "curves.csv has 120 rows" in err and "response.csv has 121" in err
    assert not (tmp_path / "fit").exists()


def test_moran_cli_negative_permutations(tmp_path, capsys):
    w = weights_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    fio.write_response_csv(tmp_path / "resp.csv", np.arange(4.0))
    fio.write_weights_csv(tmp_path / "w.csv", w)
    # refused while the flags parse, so argparse exits 2
    with pytest.raises(SystemExit) as exc:
        run(["moran", "--response", tmp_path / "resp.csv", "--weights", tmp_path / "w.csv",
             "--permutations", "-1"])
    assert exc.value.code == 2
    assert "--permutations" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "fit", "table1", "moran"])
def test_negative_seed_exits_2_naming_the_flag_before_any_output(bundle, tmp_path,
                                                                  capsys, command):
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--out", out],
        "fit": ["fit", "--data", bundle, "--method", "all", "--out", out],
        "table1": ["table1", "--rho-list", "0.5", "--out", out],
        "moran": ["moran", "--response", bundle / "response.csv",
                  "--weights", bundle / "weights.csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "table1"])
def test_basis_count_below_the_cubic_order_exits_2_naming_the_flag(bundle, tmp_path,
                                                                   capsys, command):
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--out", out],
        "fit": ["fit", "--data", bundle, "--method", "ml", "--out", out],
        "table1": ["table1", "--rho-list", "0.5", "--out", out],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--basis-count", "3"])
    assert exc.value.code == 2
    assert "argument --basis-count: must be an integer of at least 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [3, "3"])
def test_config_basis_count_below_the_cubic_order_exits_2_naming_the_key(tmp_path, capsys,
                                                                         value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"basis_count": value}))
    out = tmp_path / "out"
    try:
        code = run(["--config", config, "simulate", "--out", out])
    except SystemExit as exc:  # a string value is converted by argparse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "basis" in err and "must be an integer of at least 4" in err
    assert not out.exists()


def test_negative_unit_count_exits_2_naming_the_flag(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n0,1\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--edges", edges, "--n-units", "-1", "--out", out])
    assert exc.value.code == 2
    assert "argument --n-units: must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [-1, "-1"])
def test_config_negative_seed_exits_2_naming_the_key(bundle, tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": value}))
    out = tmp_path / "out"
    try:
        code = run(["--config", config, "fit", "--data", bundle, "--method", "all",
                    "--out", out])
    except SystemExit as exc:  # a string value is converted by argparse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "seed" in err and "must be a nonnegative integer" in err
    assert not out.exists()


def test_moran_cli_zero_permutations(bundle, capsys):
    assert run(["moran", "--response", bundle / "response.csv",
                "--weights", bundle / "weights.csv", "--permutations", "0"]) == 0
    assert "p_value=1 (0 permutations)" in capsys.readouterr().out


def test_table1_zero_replicates(tmp_path):
    assert run(
        ["table1", "--rho-list", "0.3", "--replicates", "0", "--out", tmp_path / "t"]
    ) == 2


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_iterr": 5}))
    assert run(["--config", config, "simulate", "--out", tmp_path / "o"]) == 2
    assert "n_iterr" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_with_removed_tuning_c_exits_2(bundle, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tuning_c": 0.1}))
    assert run(["--config", config, "fit", "--data", bundle, "--out", tmp_path / "o"]) == 2
    assert "unknown fit option(s)" in capsys.readouterr().err


def test_simulate_edge_out_of_range_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n1,12\n")
    code = run(["simulate", "--edges", edges, "--n-units", "10", "--out", tmp_path / "o"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["i,j\n0,1\n2\n", ""], ids=["short-row", "empty"])
def test_simulate_malformed_edges_exit_2(tmp_path, capsys, text):
    edges = tmp_path / "edges.csv"
    edges.write_text(text)
    code = run(["simulate", "--edges", edges, "--out", tmp_path / "o"])
    assert code == 2
    assert str(edges) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_header_only_edges_give_unlinked_units(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n")
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="zero-neighbor"):
        code = run(["simulate", "--edges", edges, "--n-units", "10", "--out", out])
    assert code == 0
    assert (out / "weights.csv").read_bytes() == b"i,j,w\r\n"


def test_simulate_header_only_edges_without_unit_count_exit_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n")
    assert run(["simulate", "--edges", edges, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert str(edges) in err and "--n-units" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, field", [("--sigma2", "sigma2_true"), ("--noise-sd", "noise_sd")])
def test_simulate_negative_variance_exits_2_before_any_draw(tmp_path, capsys, recwarn,
                                                           flag, field):
    assert run(["simulate", flag, "-1", "--out", tmp_path / "o"]) == 2
    assert f"{field} must be nonnegative, not -1.0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("flag, field", [("--sigma2", "sigma2_true"), ("--noise-sd", "noise_sd")])
def test_simulate_infinite_variance_exits_2_before_any_draw(tmp_path, capsys, recwarn,
                                                           flag, field):
    assert run(["simulate", flag, "inf", "--out", tmp_path / "o"]) == 2
    assert f"{field} must be finite, not inf" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_simulate_headerless_edges_match_headed(tmp_path):
    pairs = "".join(f"{i},{i + 1}\n" for i in range(8))
    (tmp_path / "headed.csv").write_text("i,j\n" + pairs)
    (tmp_path / "bare.csv").write_text(pairs)
    for name in ("headed", "bare"):
        assert run(["simulate", "--edges", tmp_path / f"{name}.csv", "--seed", "2",
                    "--out", tmp_path / name]) == 0
    assert hash_dir(tmp_path / "headed") == hash_dir(tmp_path / "bare")


def test_simulate_zero_units_is_not_ignored(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n" + "".join(f"{i},{i + 1}\n" for i in range(9)))
    code = run(["simulate", "--edges", edges, "--n-units", "0", "--out", tmp_path / "o"])
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("edges", 0), ("grid", [3, 3])])
def test_config_value_of_wrong_json_type_exits_2(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert run(["--config", config, "simulate", "--out", tmp_path / "o"]) == 2
    assert f"{key} must be a JSON" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_switch_and_choice_values(bundle, tmp_path, capsys):
    config = tmp_path / "config.json"
    argv = ["--config", config, "fit", "--data", bundle, "--out", tmp_path / "o"]
    config.write_text(json.dumps({"method": "bogus"}))
    assert run(argv) == 2
    assert "method must be one of" in capsys.readouterr().err
    config.write_text(json.dumps({"svg": "no"}))
    assert run(argv) == 2
    assert "svg must be a JSON boolean" in capsys.readouterr().err
    config.write_text(json.dumps({"method": "ml", "svg": False}))
    assert run(argv) == 0


def test_config_supplies_required_flags(bundle, tmp_path):
    config = tmp_path / "config.json"

    def run_with(values, *argv):
        config.write_text(json.dumps({k: str(v) for k, v in values.items()}))
        return run(["--config", config, *argv])

    assert run_with({"out": tmp_path / "sim"}, "simulate", "--grid", "4x4") == 0
    assert (tmp_path / "sim" / "truth.json").exists()
    assert run_with({"data": bundle, "out": tmp_path / "fit"}, "fit", "--method", "ml") == 0
    assert (tmp_path / "fit" / "report.json").exists()
    assert run_with({"rho_list": "0.3", "out": tmp_path / "t1"},
                    "table1", "--grid", "4x4", "--n-iter", "60", "--burn-in", "20") == 0
    assert (tmp_path / "t1" / "table1.csv").exists()
    assert run_with({"response": bundle / "response.csv",
                     "weights": bundle / "weights.csv"},
                    "moran", "--permutations", "9") == 0


def test_required_flag_missing_from_flags_and_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": "w.csv"}))
    with pytest.raises(SystemExit) as exc:
        run(["--config", config, "moran"])
    assert exc.value.code == 2
    assert "--response" in capsys.readouterr().err


def test_no_command_exits_2_naming_only_the_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "fslm: error: the following arguments are required: command")


def write_moran_inputs(path, response, weights):
    (path / "resp.csv").write_text("id,y\n" + response)
    (path / "w.csv").write_text("i,j,w\n" + weights)
    return ["moran", "--response", path / "resp.csv", "--weights", path / "w.csv"]


PATH3 = "0,1,1\n1,0,1\n1,2,1\n2,1,1\n"


def test_response_csv_trailing_blank_line_is_read(tmp_path, capsys):
    assert run(write_moran_inputs(tmp_path, "0,1\n1,5\n2,2\n", PATH3)) == 0
    expected = capsys.readouterr().out
    assert run(write_moran_inputs(tmp_path, "0,1\n1,5\n2,2\n\n", PATH3)) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("response, weights, bad_file", [
    ("0,1\n1\n2,2\n", PATH3, "resp.csv"),
    ("0,1\n1,5\n2,2\n", PATH3 + "1,3,1\n", "w.csv"),
    ("0,1\n1,5\n2,2\n", PATH3 + "0,-1,1\n", "w.csv"),
    ("0,1\n1,5\n2,2\n", PATH3.replace("0,1,1", "0,1,nan"), "w.csv"),
    ("0,1\n1,5\n2,2\n", PATH3.replace("0,1,1", "0,1,inf"), "w.csv"),
    ("0,1\n1,nan\n2,2\n", PATH3, "resp.csv"),
    ("0,1\n1,-inf\n2,2\n", PATH3, "resp.csv"),
], ids=["short-row", "index-at-n", "negative-index", "nan-weight", "inf-weight",
        "nan-response", "inf-response"])
def test_malformed_bundle_csv_exits_2(tmp_path, capsys, response, weights, bad_file):
    assert run(write_moran_inputs(tmp_path, response, weights)) == 2
    assert bad_file in capsys.readouterr().err


def test_fit_nan_curve_value_names_curves_csv(bundle, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("response.csv", "weights.csv"):
        (data / name).write_bytes((bundle / name).read_bytes())
    header, first, rest = (bundle / "curves.csv").read_text().split("\n", 2)
    cells = first.split(",")
    cells[1] = "nan"
    (data / "curves.csv").write_text("\n".join([header, ",".join(cells), rest]))
    assert run(["fit", "--data", data, "--method", "ml", "--out", tmp_path / "fit"]) == 2
    err = capsys.readouterr().err
    assert "curves.csv" in err and "finite" in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_non_finite_weight_exits_2(bundle, tmp_path, capsys, bad):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("curves.csv", "response.csv"):
        (data / name).write_bytes((bundle / name).read_bytes())
    header, first, rest = (bundle / "weights.csv").read_text().split("\n", 2)
    first = ",".join(first.split(",")[:2] + [bad])
    (data / "weights.csv").write_text("\n".join([header, first, rest]))
    assert run(["fit", "--data", data, "--method", "ml", "--out", tmp_path / "fit"]) == 2
    err = capsys.readouterr().err
    assert "weights.csv" in err and "finite" in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("response, weights, bad_file", [
    ("0,1\n1,5\n2,2\n", "i,j,w\n" + PATH3, "resp.csv"),
    ("id,y\n" + "0,1\n1,5\n2,2\n", PATH3, "w.csv"),
    ("y,id\n" + "0,1\n1,5\n2,2\n", "i,j,w\n" + PATH3, "resp.csv"),
], ids=["headerless-response", "headerless-weights", "swapped-response-header"])
def test_bundle_csv_without_its_header_exits_2(tmp_path, capsys, response, weights, bad_file):
    (tmp_path / "resp.csv").write_text(response)
    (tmp_path / "w.csv").write_text(weights)
    assert run(["moran", "--response", tmp_path / "resp.csv",
                "--weights", tmp_path / "w.csv"]) == 2
    err = capsys.readouterr().err
    assert bad_file in err and "header" in err


@pytest.mark.parametrize("edit", [
    lambda header: "",
    lambda header: header.replace("id,", "unit,", 1),
    lambda header: header.replace(",t=1,", ",x=1,", 1),
    lambda header: header.replace(",t=1,", ",t=nan,", 1),
    lambda header: header.replace(",t=1,", ",t=inf,", 1),
    lambda header: header.replace("t=0,t=1,", "t=1,t=0,", 1),
    lambda header: header.replace(",t=1,", ",t=0,", 1),
], ids=["headerless", "unit-column", "x-field", "nan-t", "inf-t", "unsorted-t", "repeated-t"])
def test_curves_csv_without_its_header_exits_2(bundle, tmp_path, capsys, edit):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("response.csv", "weights.csv"):
        (data / name).write_bytes((bundle / name).read_bytes())
    header, rows = (bundle / "curves.csv").read_text().split("\n", 1)
    (data / "curves.csv").write_text(edit(header + "\n") + rows)
    assert run(["fit", "--data", data, "--method", "ml", "--out", tmp_path / "fit"]) == 2
    err = capsys.readouterr().err
    assert "curves.csv" in err and "header" in err


def test_fit_all_on_binary_rook_weights_stays_in_domain(tmp_path):
    # the bundle's weights replaced by the unstandardized rook lattice,
    # whose rho domain is [0, 1/(4 cos(pi/12)))
    data = tmp_path / "rook"
    assert run(["simulate", "--seed", "3", "--out", data]) == 0
    w = grid_contiguity(11, 11)
    fio.write_weights_csv(data / "weights.csv", w)
    assert run(["fit", "--data", data, "--method", "ml", "--out", tmp_path / "ml"]) == 0
    assert run(["fit", "--data", data, "--method", "all", "--n-iter", "600",
                "--burn-in", "200", "--out", tmp_path / "all"]) == 0
    rho_max = 1.0 / (4.0 * np.cos(np.pi / 12))
    for kernel in ("normal", "uniform"):
        path = tmp_path / "all" / f"trace_{kernel}-kernel.csv"
        rho = np.loadtxt(path, delimiter=",", skiprows=1)[:, -2]
        assert np.all((rho >= 0) & (rho < rho_max))
    ml_only = json.loads((tmp_path / "ml" / "report.json").read_text())["ml"]
    both = json.loads((tmp_path / "all" / "report.json").read_text())["ml"]
    assert json.dumps(both) == json.dumps(ml_only)


def test_cli_import_loads_no_scipy():
    # numpy is fslm's only runtime dependency
    code = "import sys, fslm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(fslm.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
