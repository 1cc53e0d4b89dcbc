"""Command-line interface: subcommands, CSV contract, exit codes."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refgame as rg
import refgame.cli as cli
import refgame.config


def demo_config_dict(**overrides):
    doc = {
        "params": {
            "firm_H": {"a": 8.70, "b": 2.00, "c": 0.82},
            "firm_L": {"a": 4.30, "b": 1.20, "c": 0.32},
            "alpha": 0.90,
            "p_lo": 0.10,
            "p_hi": 7.50,
        },
        "init_prices": [4.85, 4.86],
        "init_references": [0.10, 2.95],
        "schedule": {"kind": "inverse_sqrt", "c": 1.0},
        "horizon": 500,
        "output_path": "trajectory.csv",
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def summary_dict(captured: str) -> dict:
    out = {}
    for line in captured.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


# frozen from the command before its property checks moved into analysis
VERIFY_RANDOM_20_SEED_3 = """\
command = verify
seed = 3
gradient_states = 100
gradient_max_rel_err = 1.04619926086e-09
bounds_samples = 10000
bounds_violations = 0
drift_grid_points = 10000
drift_grid_min = 0.0326062318516
drift_shell_minima = 0.103719:0.0281521 0.207438:0.0515917 0.414875:0.0883589
drift_shells_increasing = true
hessian_pd = true
hessian_fd_max_rel_err = 1.3359152943e-08
sweep_total = 20
sweep_contained = 20
sweep_solver_failures = 0
verify_pass = true
"""

SNE_FIGURE1 = """\
command = sne
sne_p_H = 1.92041336614
sne_p_L = 0.800678399099
sne_residual = 3.24407167795e-13
sne_iterations = 6
bound_lower_H = 0.354609929078
bound_upper_H = 3.29274417303
bound_lower_L = 0.657894736842
bound_upper_L = 2.65711172333
hessian_det = 7.31515392559
hessian_trace = 5.8948138406
hessian_min_eig = 1.77605999123
gamma_estimate = 0.888029995616
bounds_contained = true
"""

VERIFY_KEYS = [line.partition(" = ")[0] for line in VERIFY_RANDOM_20_SEED_3.splitlines()]


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, demo_config_dict())
        config = rg.load_config(path)
        assert config.horizon == 500
        assert config.params.firm_H.a == 8.70
        assert config.schedule.kind == "inverse_sqrt"

    def test_missing_field_names_the_field(self, tmp_path):
        doc = demo_config_dict()
        del doc["params"]["alpha"]
        path = write_config(tmp_path, doc)
        with pytest.raises(rg.ConfigError, match="alpha"):
            rg.load_config(path)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"params": ', encoding="utf-8")
        with pytest.raises(rg.ConfigError, match="line"):
            rg.load_config(str(path))

    def test_bad_horizon(self, tmp_path):
        path = write_config(tmp_path, demo_config_dict(horizon=0))
        with pytest.raises(rg.ConfigError, match="horizon"):
            rg.load_config(path)

    def test_out_of_box_initial_state(self, tmp_path):
        path = write_config(tmp_path, demo_config_dict(init_prices=[9.0, 1.0]))
        with pytest.raises(rg.ConfigError, match="init_prices"):
            rg.load_config(path)

    def test_missing_file(self):
        with pytest.raises(rg.ConfigError, match="cannot read"):
            rg.load_config("/nonexistent/cfg.json")

    def test_unknown_top_level_field_refused(self, tmp_path):
        doc = demo_config_dict()
        doc["ouput_path"] = doc.pop("output_path")
        path = write_config(tmp_path, doc)
        with pytest.raises(rg.ConfigError, match="unknown field 'ouput_path' in configuration"):
            rg.load_config(path)

    def test_unknown_params_field_refused(self, tmp_path):
        doc = demo_config_dict()
        doc["params"]["beta"] = 0.5
        path = write_config(tmp_path, doc)
        with pytest.raises(rg.ConfigError, match="unknown field 'beta' in params"):
            rg.load_config(path)

    def test_unknown_firm_field_refused(self, tmp_path, capsys):
        # passed through unchanged, not wrapped again as "params: ..."
        doc = demo_config_dict()
        doc["params"]["firm_L"]["d"] = 1.0
        path = write_config(tmp_path, doc)
        with pytest.raises(rg.ConfigError, match=r"unknown field 'd' in params\.firm_L"):
            rg.load_config(path)
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: unknown field 'd' in params.firm_L\n"

    def test_unknown_schedule_field_refused(self, tmp_path):
        # "C" for "c" used to run as inverse_sqrt(1)
        path = write_config(tmp_path, demo_config_dict(schedule={"kind": "inverse_sqrt", "C": 5}))
        with pytest.raises(rg.ConfigError) as err:
            rg.load_config(path)
        assert str(err.value) == "schedule: unknown field 'C' in inverse_sqrt schedule"

    def test_schedule_from_dict_round_trip(self):
        s = refgame.config._schedule_from_dict({"kind": "inverse_t", "d": 2.5})
        assert s.kind == "inverse_t" and s.sequence(1)[0] == 2.5
        with pytest.raises(ValueError):
            refgame.config._schedule_from_dict({"kind": "mystery"})
        with pytest.raises(ValueError):
            refgame.config._schedule_from_dict({})

    def test_unknown_field_exits_1_with_one_line(self, tmp_path, capsys):
        doc = demo_config_dict()
        doc["params"]["beta"] = 0.5
        out = tmp_path / "never.csv"
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: unknown field 'beta' in params\n"
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_csv_with_exact_schema(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        path = write_config(tmp_path, demo_config_dict(horizon=50))
        code = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("ascii").split("\n")
        assert lines[0] == "t,p_H,p_L,r_H,r_L,D_H,D_L,dist2_sne,eps_l1"
        assert lines[-1] == ""  # trailing LF
        assert len(lines) == 1 + 51 + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 4.85
        summary = summary_dict(capsys.readouterr().out)
        assert summary["command"] == "simulate"
        assert "verdict" in summary

    def test_horizon_one_yields_two_rows(self, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        path = write_config(tmp_path, demo_config_dict(horizon=1))
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows = out.read_text(encoding="ascii").strip().split("\n")
        assert len(rows) == 3  # header + 2 data rows
        capsys.readouterr()

    def test_seventeen_significant_digits(self, tmp_path, capsys):
        out = tmp_path / "digits.csv"
        path = write_config(tmp_path, demo_config_dict(horizon=5))
        cli.main(["simulate", "--config", path, "--out", str(out)])
        capsys.readouterr()
        row = out.read_text(encoding="ascii").strip().split("\n")[1].split(",")
        # 4.85 is not exactly representable; 17 significant digits expose it
        assert row[1] == "4.8499999999999996"

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, demo_config_dict(horizon=-3))
        assert cli.main(["simulate", "--config", path]) == 1
        capsys.readouterr()

    def test_inadmissible_box_exits_1(self, tmp_path, capsys):
        doc = demo_config_dict()
        doc["params"]["p_hi"] = 5.0
        # a_H = 13 raises the upper threshold to 5.193 > p_hi (a_H = 12 gives 4.742)
        doc["params"]["firm_H"]["a"] = 13.0
        doc["init_prices"] = [4.85, 4.86]
        path = write_config(tmp_path, doc)
        out = tmp_path / "traj.csv"
        code = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert code == 1
        assert "p_hi" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, capsys):
        assert cli.main(["simulate", "--config", "/no/such/file.json"]) == 1
        capsys.readouterr()

    def test_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def boom(params, cfg=None):
            raise rg.SolverError("forced failure", period=3)

        monkeypatch.setattr(cli, "solve_sne", boom)
        path = write_config(tmp_path, demo_config_dict(horizon=5))
        assert cli.main(["simulate", "--config", path]) == 2
        assert "forced failure" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["a", "c"])
    def test_failed_run_leaves_no_output_file(self, tmp_path, capsys, monkeypatch, variant):
        def boom(params, cfg=None):
            raise rg.SolverError("forced failure", period=3)

        monkeypatch.setattr(cli, "solve_sne", boom)
        out = tmp_path / "x.csv"
        code = cli.main(["figure1", "--variant", variant, "--horizon", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "forced failure" in err
        assert list(tmp_path.iterdir()) == []  # neither x.csv nor x_policy.csv

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_failed_run_keeps_a_path_that_existed(self, tmp_path, capsys, monkeypatch, kind):
        # only files the run created are removed; an earlier output, or a
        # link to one, stays (truncated, as opening it for writing does)
        def boom(params, cfg=None):
            raise rg.SolverError("forced failure", period=3)

        monkeypatch.setattr(cli, "solve_sne", boom)
        target = tmp_path / "earlier.csv"
        target.write_text("earlier run\n", encoding="ascii")
        out = target
        if kind == "symlink":
            out = tmp_path / "link.csv"
            out.symlink_to(target)
        code = cli.main(["figure1", "--variant", "c", "--horizon", "5", "--out", str(out)])
        assert code == 2
        assert "forced failure" in capsys.readouterr().err
        assert out.is_symlink() == (kind == "symlink")
        assert target.exists()
        assert not cli._policy_csv_path(out).exists()  # created by the run, so removed

    @pytest.mark.parametrize("variant", ["a", "c"])
    def test_unwritable_out_exits_1_with_one_line(
        self, tmp_path, capsys, monkeypatch, variant
    ):
        # refused before any computing: neither the solve nor the run starts
        def not_called(*args, **kwargs):
            raise AssertionError("computed before the output was opened")

        monkeypatch.setattr(cli, "solve_sne", not_called)
        monkeypatch.setattr(cli, "simulate", not_called)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = cli.main(["figure1", "--variant", variant, "--horizon", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err


# float cells the writer must print exactly as format(x, ".17g") does
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 123456789012345680.0, 1e-5, 4.85, -2.5950508119722233]


def edge_trajectory(params, n: int, t0: int = 0) -> rg.Trajectory:
    cols = {
        name: np.resize(np.roll(EDGE_FLOATS, k), n)
        for k, name in enumerate(("p_H", "p_L", "r_H", "r_L", "D_H", "D_L", "eta"))
    }
    return rg.Trajectory(params=params, schedule="constant(1)", t0=t0, **cols)


def reference_cells(t, *values) -> str:
    """The per-cell formatting the writer must reproduce."""
    return ",".join([str(t)] + [format(float(v), ".17g") for v in values])


def reference_trajectory_text(params, traj: rg.Trajectory, sne: rg.PricePair) -> str:
    """The whole file write_trajectory_csv must produce, cell by cell."""
    s_H = params.firm_H.b + params.firm_H.c
    s_L = params.firm_L.b + params.firm_L.c
    dist = np.hypot(traj.p_H - sne.p_H, traj.p_L - sne.p_L)
    eps = np.abs(sne.p_H - traj.p_H) / s_H + np.abs(sne.p_L - traj.p_L) / s_L
    lines = [cli.CSV_HEADER] + [
        reference_cells(
            traj.t0 + i, traj.p_H[i], traj.p_L[i], traj.r_H[i], traj.r_L[i],
            traj.D_H[i], traj.D_L[i], dist[i], eps[i],
        )
        for i in range(len(traj))
    ]
    return "\n".join(lines) + "\n"


TRAJECTORY_COLUMNS = ("p_H", "p_L", "r_H", "r_L", "D_H", "D_L", "eta")


def runs_trajectory(params, n: int, runs, t0: int = 0, seed: int = 0) -> rg.Trajectory:
    """n rows of distinct random floats, then for each (start, stop) in
    ``runs`` rows start..stop-1 made bit-identical to row start."""
    rng = np.random.default_rng(seed)
    cols = {name: rng.uniform(0.1, 7.5, n) for name in TRAJECTORY_COLUMNS}
    for start, stop in runs:
        for col in cols.values():
            col[start:stop] = col[start]
    return rg.Trajectory(params=params, schedule="constant(1)", t0=t0, **cols)


FIG1_SNE_PRICES = rg.PricePair(1.920413366139232, 0.8006783990990236)
CHUNK = cli.CSV_CHUNK_ROWS

# (rows, runs of bit-identical rows) around the writer's chunk boundaries
RUN_LAYOUTS = {
    "crosses_a_chunk_boundary": (2 * CHUNK + 10, [(1000, 1101)]),
    "starts_at_a_chunk_start": (2 * CHUNK + 10, [(CHUNK, 1100)]),
    "includes_row_0": (CHUNK + 10, [(0, 50)]),
    "repeated_chunk_then_fresh_chunk": (3 * CHUNK, [(CHUNK - 1, 2 * CHUNK)]),
    "runs_to_the_last_row": (2 * CHUNK + 10, [(5, 9), (1500, 2 * CHUNK + 10)]),
}


class TestCsvRows:
    @pytest.mark.parametrize("n", [1, cli.CSV_CHUNK_ROWS, cli.CSV_CHUNK_ROWS + 1])
    def test_trajectory_rows_match_per_cell_format(self, tmp_path, fig1, n):
        traj = edge_trajectory(fig1, n, t0=7)
        out = tmp_path / "edge.csv"
        cli.write_trajectory_csv(out, traj, FIG1_SNE_PRICES)
        text = out.read_bytes().decode("ascii")
        assert text == reference_trajectory_text(fig1, traj, FIG1_SNE_PRICES)
        assert text.split("\n")[1].split(",")[1] == "-0"

    @pytest.mark.parametrize("layout", list(RUN_LAYOUTS))
    def test_runs_of_identical_rows_match_per_cell_format(self, tmp_path, fig1, layout):
        n, runs = RUN_LAYOUTS[layout]
        traj = runs_trajectory(fig1, n, runs, t0=7)
        out = tmp_path / "runs.csv"
        cli.write_trajectory_csv(out, traj, FIG1_SNE_PRICES)
        assert out.read_bytes().decode("ascii") == reference_trajectory_text(
            fig1, traj, FIG1_SNE_PRICES
        )

    def test_signed_zeros_stay_distinct_rows(self, tmp_path, fig1):
        # rows 1..3 share every bit but p_H's sign bit; 0.0 == -0.0, yet
        # they print as "0" and "-0", so a by-value comparison would merge them
        traj = runs_trajectory(fig1, 5, [(1, 4)])
        p_H = traj.p_H.copy()
        p_H[1], p_H[2:4] = 0.0, -0.0
        traj = dataclasses.replace(traj, p_H=p_H)
        out = tmp_path / "zeros.csv"
        cli.write_trajectory_csv(out, traj, FIG1_SNE_PRICES)
        text = out.read_bytes().decode("ascii")
        assert text == reference_trajectory_text(fig1, traj, FIG1_SNE_PRICES)
        assert [line.split(",")[1] for line in text.split("\n")[2:5]] == ["0", "-0", "-0"]

    @pytest.mark.parametrize("n", [1, cli.CSV_CHUNK_ROWS + 1])
    def test_joined_refs_rows_match_per_cell_format(self, tmp_path, fig1, n):
        learn = edge_trajectory(fig1, n + 5)
        policy = edge_trajectory(fig1, n, t0=3)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        gap = np.hypot(learn.r_H[:n] - policy.r_H, learn.r_L[:n] - policy.r_L)
        lines = out.read_text(encoding="ascii").split("\n")
        assert lines[0] == "t,r_H_grad,r_L_grad,r_H_policy,r_L_policy,ref_gap"
        assert lines[1:] == [
            reference_cells(
                i, learn.r_H[i], learn.r_L[i], policy.r_H[i], policy.r_L[i], gap[i]
            )
            for i in range(n)
        ] + [""]

    def test_joined_refs_with_a_repeated_tail(self, tmp_path, fig1):
        n = CHUNK + 300
        learn = runs_trajectory(fig1, n + 5, [(900, n + 5)], seed=1)
        policy = runs_trajectory(fig1, n, [(1000, n)], t0=3, seed=2)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        gap = np.hypot(learn.r_H[:n] - policy.r_H, learn.r_L[:n] - policy.r_L)
        lines = out.read_text(encoding="ascii").split("\n")
        assert lines[1:] == [
            reference_cells(
                i, learn.r_H[i], learn.r_L[i], policy.r_H[i], policy.r_L[i], gap[i]
            )
            for i in range(n)
        ] + [""]

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_percent_format_equals_format(self, x):
        # the premise of the row writer's tail template
        assert "%.17g" % x == format(x, ".17g")


class TestSneCommand:
    def test_symmetric_prints_equal_prices(self, tmp_path, capsys):
        doc = demo_config_dict()
        doc["params"] = {
            "firm_H": {"a": 10.0, "b": 1.0, "c": 1.0},
            "firm_L": {"a": 10.0, "b": 1.0, "c": 1.0},
            "alpha": 0.5,
            "p_lo": 0.4,
            "p_hi": 8.0,
        }
        doc["init_prices"] = [2.0, 2.0]
        doc["init_references"] = [2.0, 2.0]
        path = write_config(tmp_path, doc)
        assert cli.main(["sne", "--config", path]) == 0
        summary = summary_dict(capsys.readouterr().out)
        assert abs(float(summary["sne_p_H"]) - float(summary["sne_p_L"])) < 1e-10
        # the worked threshold value prints to four decimals
        assert float(summary["bound_upper_H"]) == pytest.approx(7.3785, abs=5e-5)

    def test_demo_instance_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, demo_config_dict())
        assert cli.main(["sne", "--config", path]) == 0
        summary = summary_dict(capsys.readouterr().out)
        assert float(summary["sne_residual"]) < 1e-10
        assert float(summary["hessian_det"]) > 0.0
        assert summary["bounds_contained"] == "true"

    def test_figure1_stdout_frozen(self, tmp_path, capsys):
        path = write_config(tmp_path, demo_config_dict())
        assert cli.main(["sne", "--config", path]) == 0
        assert capsys.readouterr() == (SNE_FIGURE1, "")

    @pytest.mark.parametrize("p_hi", [7.5, 900.0])
    def test_large_intrinsic_value_ends_in_one_line(self, tmp_path, capsys, p_hi):
        # k*exp(a_H - k) overflows a float; the bound is solved in log form
        doc = demo_config_dict()
        doc["params"]["firm_H"]["a"] = 1000.0
        doc["params"]["p_hi"] = p_hi
        code = cli.main(["sne", "--config", write_config(tmp_path, doc)])
        out, err = capsys.readouterr()
        if p_hi == 7.5:
            assert code == 1
            assert (out, err) == ("", "error: price box inadmissible: p_hi must be >= 496.378\n")
        else:
            assert code == 0 and err == ""
            summary = summary_dict(out)
            assert summary["bound_upper_H"] == "496.378319694"
            assert float(summary["bound_lower_H"]) < float(summary["sne_p_H"]) < 496.378319694


class TestCompareCommand:
    def test_demo_compare_small(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        path = write_config(tmp_path, demo_config_dict(horizon=3000))
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
        summary = summary_dict(capsys.readouterr().out)
        policy_file = tmp_path / "cmp_policy.csv"
        assert out.exists() and policy_file.exists()
        header = policy_file.read_text(encoding="ascii").split("\n")[0]
        assert header == "t,r_H_grad,r_L_grad,r_H_policy,r_L_policy,ref_gap"
        assert int(summary["policy_horizon"]) == 1000
        assert float(summary["terminal_mutual_gap"]) < 1e-2

    def test_stationary_start_has_zero_gap(self, tmp_path, capsys, fig1_sne):
        sne = fig1_sne.prices
        doc = demo_config_dict(horizon=50)
        doc["init_prices"] = [sne.p_H, sne.p_L]
        doc["init_references"] = [sne.p_H, sne.p_L]
        path = write_config(tmp_path, doc)
        out = tmp_path / "flat.csv"
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
        summary = summary_dict(capsys.readouterr().out)
        assert float(summary["terminal_mutual_gap"]) < 1e-9

    def test_zero_horizon_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, demo_config_dict())
        assert cli.main(["compare", "--config", path, "--horizon", "0"]) == 1
        capsys.readouterr()


# per case, the property check that fails and an input of
# analysis.check_properties replaced so that it does
BROKEN_INPUTS = {
    # D_i one off everywhere
    "gradient": (
        "gradient", "log_rev_derivative", lambda *a: np.add(rg.log_rev_derivative(*a), 1.0)
    ),
    # bounds of zero that every sample exceeds
    "bounds": ("bounds", "bound_constants", lambda params: (0.0, 0.0)),
    # drift pointing away from the SNE
    "drift_grid": ("drift", "sne_drift", lambda *a: -rg.sne_drift(*a)),
    # positive drift that does not grow with the shell radius
    "drift_shells": ("drift", "_shell_minimum", lambda *a: 1.0),
    # a potential twice the one the closed-form Hessian describes
    "hessian": ("hessian", "local_potential", lambda *a: 2.0 * rg.local_potential(*a)),
}


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        assert cli.main(["verify", "--random", "3", "--seed", "7"]) == 0
        summary = summary_dict(capsys.readouterr().out)
        assert summary["sweep_total"] == "3"
        assert summary["sweep_contained"] == "3"
        assert summary["sweep_solver_failures"] == "0"
        assert summary["verify_pass"] == "true"

    def test_zero_sweep_is_vacuous_but_grid_checks_run(self, capsys):
        assert cli.main(["verify", "--random", "0"]) == 0
        summary = summary_dict(capsys.readouterr().out)
        assert summary["sweep_total"] == "0"
        assert float(summary["gradient_max_rel_err"]) < 1e-6
        assert summary["drift_shells_increasing"] == "true"
        assert summary["verify_pass"] == "true"

    def test_random_20_seed_3_stdout_frozen(self, capsys):
        assert cli.main(["verify", "--random", "20", "--seed", "3"]) == 0
        assert capsys.readouterr() == (VERIFY_RANDOM_20_SEED_3, "")

    def test_check_properties_returns_the_printed_values(self, fig1, fig1_sne):
        # the sweep draws after the property checks, so seed 3's report is
        # the one printed above it
        report = rg.check_properties(fig1, fig1_sne, np.random.default_rng(3))
        printed = summary_dict(VERIFY_RANDOM_20_SEED_3)
        assert report.failures == ()
        assert report.gradient_states == 100 and report.bounds_samples == 10_000
        assert report.bounds_violations == 0 and report.drift_grid_points == 10_000
        assert report.drift_shells_increasing is True and report.hessian_pd is True
        for key in ("gradient_max_rel_err", "drift_grid_min", "hessian_fd_max_rel_err"):
            assert format(getattr(report, key), ".12g") == printed[key]
        shells = " ".join(f"{e:.6g}:{m:.6g}" for e, m in report.drift_shell_minima)
        assert shells == printed["drift_shell_minima"]

    @pytest.mark.parametrize("case", list(BROKEN_INPUTS))
    def test_failed_check_exits_3_with_one_summary(self, capsys, monkeypatch, case):
        name, target, broken = BROKEN_INPUTS[case]
        monkeypatch.setattr(rg.analysis, target, broken)
        assert cli.main(["verify"]) == 3
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.partition(" = ")[0] for line in out.splitlines()] == [
            *VERIFY_KEYS, "verify_failures"
        ]
        summary = summary_dict(out)
        assert summary["verify_pass"] == "false"
        assert summary["verify_failures"] == name

    def test_failed_sweep_exits_3(self, capsys, monkeypatch):
        solved = []

        def solve_only_the_first(params, cfg=None):
            solved.append(params)
            if len(solved) > 1:
                raise rg.SolverError("forced failure")
            return rg.solve_sne(params)

        monkeypatch.setattr(cli, "solve_sne", solve_only_the_first)
        assert cli.main(["verify", "--random", "2"]) == 3
        summary = summary_dict(capsys.readouterr().out)
        assert summary["sweep_contained"] == "0"
        assert summary["sweep_solver_failures"] == "2"
        assert summary["verify_failures"] == "sweep"

    def test_negative_sweep_size_exits_1_with_one_line(self, capsys):
        # it used to print sweep_contained = 0 against sweep_total = -1 and exit 3
        assert cli.main(["verify", "--random", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --random must be >= 0, got -1\n")

    def test_determinism_of_report(self, capsys):
        assert cli.main(["verify", "--random", "2", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["verify", "--random", "2", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestFigure1Command:
    def test_variant_a_short_run(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = cli.main(
            ["figure1", "--variant", "a", "--horizon", "2000", "--out", str(out)]
        )
        assert code == 0
        summary = summary_dict(capsys.readouterr().out)
        assert summary["verdict"] == "CONVERGED"
        assert float(summary["terminal_price_gap_inf"]) < 1e-2

    def test_variant_b_cycles(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = cli.main(
            ["figure1", "--variant", "b", "--horizon", "3000", "--out", str(out)]
        )
        assert code == 0
        summary = summary_dict(capsys.readouterr().out)
        assert summary["verdict"] == "CYCLING"

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        cli.main(["figure1", "--variant", "a", "--horizon", "1500", "--out", str(out1)])
        cli.main(["figure1", "--variant", "a", "--horizon", "1500", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_variant_a_full_csv_bits(self, tmp_path, capsys):
        # the whole 1e5-period file, frozen from the writer that formatted
        # every cell; the path settles at period 760, so most rows repeat
        out = tmp_path / "a.csv"
        assert cli.main(["figure1", "--variant", "a", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e831beb6a30526a876ebb1265d78f483e2bda4cf255d648505fbd3e2e675ba97"
        )

    def test_unknown_variant_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["figure1", "--variant", "z"])
        capsys.readouterr()
