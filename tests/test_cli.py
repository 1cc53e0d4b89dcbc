"""Command-line interface: subcommands, CSV contract, exit codes."""

import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refgame as rg
import refgame.cli as cli
import refgame.config
from refgame.dynamics import ETA_CHUNK
from conftest import TRAJECTORY_COLUMNS, built_columns


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


# frozen from the command once the Hessian certificate read 1 - d_i as the
# exact complement (e_0 + e_-i)/total; the gradient line since the
# gradient check differences log revenue in log space; the drift lines
# since the drift check compares the grid with its proved lower bound;
# the hessian line since the hessian check compares the certificate with
# M + M^T
VERIFY_RANDOM_20_SEED_3 = """\
command = verify
seed = 3
gradient_states = 100
gradient_max_rel_err = 9.95641960771e-10
bounds_samples = 10000
bounds_violations = 0
drift_grid_points = 10000
drift_grid_min = 0.0326062318516
drift_bound_violations = 0
hessian_identity_rel_err = 6.7398959885e-13
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

# figure1 summaries at the default horizons, every line but the output paths
FIGURE1_SUMMARIES = {
    "a": """\
command = simulate
schedule = inverse_sqrt(1)
horizon = 100000
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
terminal_price_gap_inf = 2.86992651866e-13
terminal_ref_gap_inf = 2.86326518051e-13
orbit_period = 1
orbit_onset = 760
verdict = CONVERGED
rate_window = 50000..100000
rate_sup_t_dist2 = 8.77665565772e-21
rate_sup_t2_gap2 = 1.67632942359e-20
rate_converged = true
""",
    "b": """\
command = simulate
schedule = constant(1)
horizon = 10000
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
terminal_price_gap_inf = 0.200154711334
terminal_ref_gap_inf = 0.151529887038
orbit_period = 4
orbit_onset = 469
verdict = CYCLING
rate_window = 5000..10000
rate_sup_t_dist2 = 3458.94563889
rate_sup_t2_gap2 = 19660207.9724
rate_converged = false
""",
    "c": """\
command = compare
schedule = inverse_sqrt(1)
horizon = 100000
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
terminal_ref_gap_grad = 2.86326518051e-13
terminal_ref_gap_policy = 4.89386309255e-13
terminal_mutual_gap = 5.6177285046e-13
orbit_period = 1
orbit_onset = 760
""",
}

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

    @pytest.mark.parametrize("horizon", [1.5, True, "10"])
    def test_non_integer_horizon_exits_1_with_one_line(self, tmp_path, capsys, horizon):
        path = write_config(tmp_path, demo_config_dict(horizon=horizon))
        with pytest.raises(rg.ConfigError):
            rg.load_config(path)
        assert cli.main(["sne", "--config", path]) == 1
        assert capsys.readouterr() == (
            "", f"error: horizon must be an integer >= 1, got {horizon!r}\n"
        )

    @pytest.mark.parametrize("value", [None, 5, "", ["x.csv"]])
    def test_output_path_must_be_a_non_empty_string(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, demo_config_dict(output_path=value))
        with pytest.raises(rg.ConfigError, match="output_path"):
            rg.load_config(path)
        assert cli.main(["simulate", "--config", path]) == 1
        assert capsys.readouterr() == (
            "", f"error: output_path must be a non-empty string, got {value!r}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "where, set_huge",
        [
            (
                "schedule: field eta",
                lambda doc: doc.update(schedule={"kind": "constant", "eta": 10**400}),
            ),
            ("field params.firm_H.a", lambda doc: doc["params"]["firm_H"].update(a=10**400)),
            ("field params.p_hi", lambda doc: doc["params"].update(p_hi=10**400)),
            ("field init_prices[0]", lambda doc: doc.update(init_prices=[10**400, 4.86])),
        ],
    )
    def test_integer_beyond_float_range_exits_1_with_one_line(
        self, tmp_path, capsys, where, set_huge
    ):
        doc = demo_config_dict()
        set_huge(doc)
        path = write_config(tmp_path, doc)
        assert cli.main(["sne", "--config", path]) == 1
        assert capsys.readouterr() == (
            "", f"error: {where} lies outside the float range\n"
        )

    def test_override_refuses_a_bool_horizon(self):
        with pytest.raises(rg.ConfigError, match="horizon must be an integer >= 1, got True"):
            rg.figure1_config("a").override(horizon=True)

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

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"kind": "constant", "eta": "1"}, "field eta must be a number, got '1'"),
            ({"kind": "constant", "eta": True}, "field eta must be a number, got True"),
            ({"kind": "inverse_sqrt", "c": [1]}, "field c must be a number, got [1]"),
            ({"kind": "inverse_t", "d": None}, "field d must be a number, got None"),
            (
                {"kind": "explicit", "values": {"a": 1}},
                "field values must be a list of numbers, got {'a': 1}",
            ),
            (
                {"kind": "explicit", "values": [True, 0.5]},
                "field values[0] must be a number, got True",
            ),
            ({"kind": "explicit", "values": [1, "1"]}, "field values[1] must be a number, got '1'"),
            ({"kind": "constant"}, "missing field 'eta' in constant schedule"),
        ],
        ids=["eta_str", "eta_bool", "c_list", "d_null", "values_obj", "bool_value", "str_value",
             "no_eta"],
    )
    def test_schedule_field_of_the_wrong_type_exits_1_with_one_line(
        self, tmp_path, capsys, schedule, message
    ):
        path = write_config(tmp_path, demo_config_dict(schedule=schedule))
        assert cli.main(["sne", "--config", path]) == 1
        assert capsys.readouterr() == ("", f"error: schedule: {message}\n")

    def test_schedule_from_dict_round_trip(self):
        s = refgame.config._schedule_from_dict({"kind": "inverse_t", "d": 2.5})
        assert s.kind == "inverse_t" and s.sequence(1)[0] == 2.5
        with pytest.raises(ValueError):
            refgame.config._schedule_from_dict({"kind": "mystery"})
        with pytest.raises(ValueError):
            refgame.config._schedule_from_dict({})

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                lambda doc: doc["params"].update(firm_L=[1, 2, 3]),
                "params.firm_L must be an object with keys a, b, c",
            ),
            (
                lambda doc: doc["params"]["firm_H"].update(b=0),
                "params.firm_H: FirmParams.b must be > 0, got 0.0",
            ),
            (
                lambda doc: doc["params"].update(p_lo=7.5),
                "params: price box must satisfy 0 < p_lo < p_hi, got [7.5, 7.5]",
            ),
            (
                lambda doc: doc.update(init_references=[0.10]),
                "init_references must be a two-element list [H, L]",
            ),
            (lambda doc: doc.update(params=[1]), "'params' must be an object"),
            (lambda doc: [doc], "configuration root must be a JSON object"),
            (lambda doc: doc.__delitem__("schedule"), "missing field 'schedule' in configuration"),
        ],
        ids=[
            "firm_list", "firm_b_zero", "box_empty", "pair_short", "params_list", "root_list",
            "no_schedule",
        ],
    )
    def test_malformed_document_exits_1_with_one_line(self, tmp_path, capsys, change, message):
        doc = demo_config_dict()
        doc = change(doc) or doc  # a change returns the document when it replaces the root
        out = tmp_path / "never.csv"
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_params_only_document_serves_sne_and_verify(self, tmp_path, capsys):
        # both read the market alone; simulate still needs a whole experiment
        path = write_config(tmp_path, {"params": demo_config_dict()["params"]})
        assert cli.main(["sne", "--config", path]) == 0
        assert capsys.readouterr() == (SNE_FIGURE1, "")
        assert cli.main(["verify"]) == 0
        figure1_report = capsys.readouterr()
        assert cli.main(["verify", "--config", path]) == 0
        assert capsys.readouterr() == figure1_report
        out = tmp_path / "never.csv"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: missing field 'schedule' in configuration\n")
        assert not out.exists()

    def test_unknown_figure1_variant_refused(self):
        with pytest.raises(rg.ConfigError) as err:
            rg.figure1_config("d")
        assert str(err.value) == "variant must be one of ('a', 'b', 'c'), got 'd'"

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
        # refused before any output is opened: a new path is not created,
        # and an earlier output is not truncated
        doc = demo_config_dict()
        doc["params"]["p_hi"] = 5.0
        # a_H = 13 raises the upper threshold to 5.193 > p_hi (a_H = 12 gives 4.742)
        doc["params"]["firm_H"]["a"] = 13.0
        doc["init_prices"] = [4.85, 4.86]
        path = write_config(tmp_path, doc)
        new, earlier = tmp_path / "traj.csv", tmp_path / "earlier.csv"
        earlier.write_text("earlier run\n", encoding="ascii")
        for command in ("simulate", "compare"):
            for out in (new, earlier):
                code = cli.main([command, "--config", path, "--out", str(out)])
                assert code == 1
                assert "p_hi" in capsys.readouterr().err
                assert not cli._policy_csv_path(out).exists()
        assert not new.exists()
        assert earlier.read_text(encoding="ascii") == "earlier run\n"

    def test_explicit_schedule_shorter_than_the_horizon_exits_1(self, tmp_path, capsys):
        doc = demo_config_dict(schedule={"kind": "explicit", "values": [1.0, 0.5, 0.5]}, horizon=10)
        out = tmp_path / "never.csv"
        code = cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: explicit schedule has 3 values, 10 requested\n")
        assert not out.exists()

    def test_missing_config_file_exits_1(self, capsys):
        assert cli.main(["simulate", "--config", "/no/such/file.json"]) == 1
        capsys.readouterr()

    def test_solver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def boom(params):
            raise rg.SolverError("forced failure", period=3)

        monkeypatch.setattr(cli, "solve_sne", boom)
        path = write_config(tmp_path, demo_config_dict(horizon=5))
        assert cli.main(["simulate", "--config", path]) == 2
        assert "forced failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sne", "compare", "figure1"])
    def test_overflow_in_a_solver_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr(rg.equilibrium, "_shares", overflow)
        path = write_config(tmp_path, demo_config_dict(horizon=5))
        out = str(tmp_path / "x.csv")
        argv = {
            "sne": ["sne", "--config", path],
            "compare": ["compare", "--config", path, "--out", out],
            "figure1": ["figure1", "--variant", "c", "--horizon", "5", "--out", out],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver failure: ")
        assert "OverflowError: math range error" in err and "'iterations': 0" in err

    @pytest.mark.parametrize("variant", ["a", "c"])
    def test_failed_run_leaves_no_output_file(self, tmp_path, capsys, monkeypatch, variant):
        # a failed solve opens no file; a stage that fails after the files
        # are opened leaves the ones the run created removed
        def boom(*args):
            raise rg.SolverError("forced failure", period=3)

        for stage in ("solve_sne", "simulate"):
            with monkeypatch.context() as patch:
                patch.setattr(cli, stage, boom)
                out = tmp_path / "x.csv"
                argv = ["figure1", "--variant", variant, "--horizon", "5", "--out", str(out)]
                assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "forced failure" in err
            assert list(tmp_path.iterdir()) == []  # neither x.csv nor x_policy.csv

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_failed_run_keeps_a_path_that_existed(self, tmp_path, capsys, monkeypatch, kind):
        # only files the run created are removed; an earlier output, or a
        # link to one, stays: untouched when the solve fails, truncated (as
        # opening it for writing does) when a later stage fails
        def boom(*args):
            raise rg.SolverError("forced failure", period=3)

        target = tmp_path / "earlier.csv"
        out = target
        if kind == "symlink":
            out = tmp_path / "link.csv"
            out.symlink_to(target)
        for stage, left in (("solve_sne", "earlier run\n"), ("simulate", "")):
            target.write_text("earlier run\n", encoding="ascii")
            with monkeypatch.context() as patch:
                patch.setattr(cli, stage, boom)
                argv = ["figure1", "--variant", "c", "--horizon", "5", "--out", str(out)]
                assert cli.main(argv) == 2
            assert "forced failure" in capsys.readouterr().err
            assert out.is_symlink() == (kind == "symlink")
            assert target.read_text(encoding="ascii") == left
            assert not cli._policy_csv_path(out).exists()  # created by the run, so removed

    @pytest.mark.parametrize("variant", ["a", "c"])
    def test_unwritable_out_exits_1_with_one_line(
        self, tmp_path, capsys, monkeypatch, variant
    ):
        # refused after the solve, before the paths are computed
        def not_called(*args, **kwargs):
            raise AssertionError("computed before the output was opened")

        solved = []

        def solve(params):
            solved.append(params)
            return rg.solve_sne(params)

        monkeypatch.setattr(cli, "solve_sne", solve)
        monkeypatch.setattr(cli, "simulate", not_called)
        monkeypatch.setattr(cli, "equilibrium_path", not_called)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = cli.main(["figure1", "--variant", variant, "--horizon", "5", "--out", str(out)])
        assert code == 1
        assert solved == [rg.figure1_params()]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err

    def test_solver_failure_comes_before_an_unwritable_out(self, tmp_path, capsys, monkeypatch):
        def boom(params):
            raise rg.SolverError("forced failure", period=3)

        monkeypatch.setattr(cli, "solve_sne", boom)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = cli.main(["figure1", "--variant", "c", "--horizon", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "forced failure" in err

    def test_a_run_evaluates_the_bounds_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        bounds = rg.equilibrium.sne_bounds

        def counted(params):
            calls.append(params)
            return bounds(params)

        monkeypatch.setattr(rg.equilibrium, "sne_bounds", counted)
        out = tmp_path / "c.csv"
        code = cli.main(["figure1", "--variant", "c", "--horizon", "5", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        assert calls == [rg.figure1_params()]


# float cells the writer must print exactly as format(x, ".17g") does
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 123456789012345680.0, 1e-5, 4.85, -2.5950508119722233]


def edge_trajectory(params, n: int) -> rg.Trajectory:
    cols = {
        name: np.resize(np.roll(EDGE_FLOATS, k), n)
        for k, name in enumerate(TRAJECTORY_COLUMNS)
    }
    return rg.Trajectory(params=params, schedule="constant(1)", **cols)


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
            i, traj.p_H[i], traj.p_L[i], traj.r_H[i], traj.r_L[i],
            traj.D_H[i], traj.D_L[i], dist[i], eps[i],
        )
        for i in range(len(traj))
    ]
    return "\n".join(lines) + "\n"


def runs_trajectory(params, n: int, runs, seed: int = 0) -> rg.Trajectory:
    """n rows of distinct random floats, then for each (start, stop) in
    ``runs`` rows start..stop-1 made bit-identical to row start."""
    rng = np.random.default_rng(seed)
    cols = {name: rng.uniform(0.1, 7.5, n) for name in TRAJECTORY_COLUMNS}
    for start, stop in runs:
        for col in cols.values():
            col[start:stop] = col[start]
    return rg.Trajectory(params=params, schedule="constant(1)", **cols)


def repeating_trajectory(params, n: int, onset: int, period: int, seed: int = 0):
    """n records whose first onset + period are distinct random floats and
    whose last ``period`` of those repeat to the end, as a trajectory
    with that tail."""
    rng = np.random.default_rng(seed)
    head = rng.uniform(0.1, 7.5, (len(TRAJECTORY_COLUMNS), onset + period))
    t = np.arange(n)
    records = head[:, np.where(t < onset, t, onset + (t - onset) % period)]
    traj = rg.Trajectory._repeating(params, "constant(1)", list(records), n, period)
    assert (traj.onset, traj.period) == (onset, period)
    return traj


def oracle_rows(n: int, onset: int, period: int, *records) -> str:
    """The rows _write_rows must produce, one at a time: row t is "%d" % t,
    then each record's ",%.17g" at record t, or past the onset at record
    onset + (t - onset) % period."""
    cells = ["".join(",%.17g" % x for x in values) for values in zip(*records)]
    rows = []
    for t in range(n):
        i = t if t < onset else onset + (t - onset) % period
        rows.append("%d%s\n" % (t, cells[i]))
    return "".join(rows)


def figure1_b_trajectory(horizon: int) -> rg.Trajectory:
    cfg = rg.figure1_config("b")
    return rg.simulate(cfg.params, cfg.initial_state(), cfg.schedule, horizon)


def joined_reference_lines(learn: rg.Trajectory, policy: rg.Trajectory) -> list:
    """The data lines _write_joined_refs_csv must produce, cell by cell."""
    gap = np.hypot(learn.r_H - policy.r_H, learn.r_L - policy.r_L)
    return [
        reference_cells(i, learn.r_H[i], learn.r_L[i], policy.r_H[i], policy.r_L[i], gap[i])
        for i in range(len(learn))
    ] + [""]


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


# row counts, onsets and periods around the writer's blocks of a hundred rows
ORACLE_ROWS = [1, 2, 99, 100, 101, 199, 200, 201, 1000, 12_345]
ORACLE_ONSETS = [0, 1, 50, 99, 100, 101, 760]
ORACLE_PERIODS = [0, 1, 2, 3, 4, 7, 20, 25, 50, 64]


class TestCsvRows:
    @pytest.mark.parametrize("n", ORACLE_ROWS)
    def test_rows_match_the_row_by_row_oracle(self, n):
        rng = np.random.default_rng(n)
        cases = {
            (min(onset, n), period)
            for onset in ORACLE_ONSETS
            for period in ORACLE_PERIODS
            if min(onset, n) + period <= n and (period or min(onset, n) == n)
        }
        for onset, period in sorted(cases):
            shape = (2, onset + period)
            records = rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-5, 6, shape)
            out = io.StringIO()
            cli._write_rows(out, n, onset, period, *records)
            assert out.getvalue() == oracle_rows(n, onset, period, *records), (onset, period)

    @pytest.mark.parametrize("n", [1, cli.CSV_CHUNK_ROWS, cli.CSV_CHUNK_ROWS + 1])
    def test_trajectory_rows_match_per_cell_format(self, tmp_path, fig1, n):
        traj = edge_trajectory(fig1, n)
        out = tmp_path / "edge.csv"
        cli.write_trajectory_csv(out, traj, FIG1_SNE_PRICES)
        text = out.read_bytes().decode("ascii")
        assert text == reference_trajectory_text(fig1, traj, FIG1_SNE_PRICES)
        assert text.split("\n")[1].split(",")[1] == "-0"

    @pytest.mark.parametrize("layout", list(RUN_LAYOUTS))
    def test_runs_of_identical_rows_match_per_cell_format(self, tmp_path, fig1, layout):
        n, runs = RUN_LAYOUTS[layout]
        traj = runs_trajectory(fig1, n, runs)
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
        traj = rg.Trajectory(
            fig1, traj.schedule, p_H, traj.p_L, traj.r_H, traj.r_L, traj.D_H, traj.D_L
        )
        out = tmp_path / "zeros.csv"
        cli.write_trajectory_csv(out, traj, FIG1_SNE_PRICES)
        text = out.read_bytes().decode("ascii")
        assert text == reference_trajectory_text(fig1, traj, FIG1_SNE_PRICES)
        assert [line.split(",")[1] for line in text.split("\n")[2:5]] == ["0", "-0", "-0"]

    @pytest.mark.parametrize("n", [1, cli.CSV_CHUNK_ROWS + 1])
    def test_joined_refs_rows_match_per_cell_format(self, tmp_path, fig1, n):
        learn = edge_trajectory(fig1, n)
        policy = rg.Trajectory(
            fig1, learn.schedule, learn.p_H, learn.p_L,
            np.roll(learn.r_H, 3), np.roll(learn.r_L, 5), learn.D_H, learn.D_L,
        )
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        lines = out.read_text(encoding="ascii").split("\n")
        assert lines[0] == "t,r_H_grad,r_L_grad,r_H_policy,r_L_policy,ref_gap"
        assert lines[1:] == joined_reference_lines(learn, policy)

    def test_joined_refs_with_a_repeated_tail(self, tmp_path, fig1):
        n = CHUNK + 300
        learn = runs_trajectory(fig1, n, [(900, n)], seed=1)
        policy = runs_trajectory(fig1, n, [(1000, n)], seed=2)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        assert out.read_text(encoding="ascii").split("\n")[1:] == joined_reference_lines(
            learn, policy
        )

    def test_cycling_trajectory_rows_match_per_cell_format(self, tmp_path, fig1):
        traj = figure1_b_trajectory(2 * ETA_CHUNK + 100)
        assert (traj.period, traj.onset) == (4, 469)
        out = tmp_path / "b.csv"
        cli.write_trajectory_csv(out, traj, FIG1_SNE_PRICES)
        assert out.read_bytes().decode("ascii") == reference_trajectory_text(
            fig1, traj, FIG1_SNE_PRICES
        )

    def test_joined_refs_of_two_orbits(self, tmp_path):
        # a period-4 learning path and a period-1 policy path: the rows
        # repeat with period 4 from the later onset
        horizon = 2 * ETA_CHUNK + 100
        learn = figure1_b_trajectory(horizon)
        cfg = rg.figure1_config("b")
        policy = rg.equilibrium_path(cfg.params, cfg.init_references, horizon)
        assert (learn.period, learn.onset, policy.period) == (4, 469, 1)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        assert not built_columns(learn) and not built_columns(policy)
        assert out.read_text(encoding="ascii").split("\n")[1:] == joined_reference_lines(
            learn, policy
        )

    def test_joined_refs_of_periods_4_and_1_over_many_blocks(self, tmp_path, fig1):
        # the joined rows repeat with period 4 from row 777, through blocks
        # of a hundred rows up to 12 300 and a last partial hundred
        learn = repeating_trajectory(fig1, 12_345, 150, 4, seed=4)
        policy = repeating_trajectory(fig1, len(learn), 777, 1, seed=5)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        assert out.read_text(encoding="ascii").split("\n")[1:] == joined_reference_lines(
            learn, policy
        )

    def test_joined_refs_with_one_path_of_period_0(self, tmp_path, fig1):
        learn = figure1_b_trajectory(2 * ETA_CHUNK + 100)
        policy = runs_trajectory(fig1, len(learn), [(1000, len(learn))], seed=3)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        assert out.read_text(encoding="ascii").split("\n")[1:] == joined_reference_lines(
            learn, policy
        )

    def test_joined_refs_repeat_past_the_last_row(self, tmp_path, fig1):
        # onsets 469 and 470, periods 4 and 3: the joined rows would repeat
        # from row 470 + 12, past the 481 rows of the run
        learn = figure1_b_trajectory(480)
        policy = repeating_trajectory(fig1, len(learn), 470, 3)
        assert (learn.period, learn.onset) == (4, 469)
        out = tmp_path / "joined.csv"
        cli._write_joined_refs_csv(out, learn, policy)
        lines = out.read_text(encoding="ascii").split("\n")
        assert len(lines) == 1 + 481 + 1
        assert lines[1:] == joined_reference_lines(learn, policy)

    def test_writer_builds_no_column(self, tmp_path):
        traj = figure1_b_trajectory(100_000)
        cli.write_trajectory_csv(tmp_path / "b.csv", traj, FIG1_SNE_PRICES)
        assert not built_columns(traj)

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

    def test_sne_outside_its_bounds_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        # a forced Newton result on the box's lower edge, below both lower bounds
        def newton(consts, lo, hi, *args, **kwargs):
            return lo, lo, 0.0, 1, 0.5, 0.5

        monkeypatch.setattr(rg.equilibrium, "_newton", newton)
        assert cli.main(["sne", "--config", write_config(tmp_path, demo_config_dict())]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(
            "solver failure: solved stationary prices violate their analytic bounds "
            "[{'prices': (0.1, 0.1), 'bounds': "
        )

    def test_hessian_not_positive_definite_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        negative = rg.HessianCertificate(
            h_HH=-1.0, h_HL=0.0, h_LL=-1.0, det=1.0, trace=-2.0, min_eig=-1.0,
            gamma_estimate=-0.5,
        )
        monkeypatch.setattr(rg.equilibrium, "hessian_certificate", lambda params, sne: negative)
        assert cli.main(["sne", "--config", write_config(tmp_path, demo_config_dict())]) == 2
        assert capsys.readouterr() == (
            "",
            "solver failure: Hessian certificate is not positive definite at the solution "
            "[{'det': 1.0, 'trace': -2.0}]\n",
        )


class TestCompareCommand:
    def test_demo_compare_small(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        path = write_config(tmp_path, demo_config_dict(horizon=3000))
        assert cli.main(["compare", "--config", path, "--out", str(out)]) == 0
        summary = summary_dict(capsys.readouterr().out)
        policy_file = tmp_path / "cmp_policy.csv"
        assert out.exists() and policy_file.exists()
        lines = policy_file.read_text(encoding="ascii").split("\n")
        assert lines[0] == "t,r_H_grad,r_L_grad,r_H_policy,r_L_policy,ref_gap"
        # one horizon for both paths: a row for each of the 3001 periods
        assert lines[-1] == "" and len(lines) - 2 == 3001
        rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
        np.testing.assert_array_equal(rows[:, 0], np.arange(3001))
        config = rg.load_config(path)
        policy = rg.equilibrium_path(config.params, config.init_references, 3000)
        np.testing.assert_array_equal(rows[:, 3], policy.r_H)
        np.testing.assert_array_equal(rows[:, 4], policy.r_L)
        # the run has one horizon, so the summary states one
        assert list(summary)[:5] == ["command", "schedule", "horizon", "output", "output_policy"]
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


def partials_with_L_price_columns_swapped(*args):
    table = rg.scaled_derivative_partials(*args)
    table[1, [0, 1]] = table[1, [1, 0]]
    return table


def certificate_with_c_H_scaled(params, sne):
    firm_H = dataclasses.replace(params.firm_H, c=params.firm_H.c * (1.0 + 1e-6))
    return rg.hessian_certificate(dataclasses.replace(params, firm_H=firm_H), sne)


def certificate_with(**scales):
    """The certificate with each named entry times its scale."""

    def certificate(params, sne):
        cert = rg.hessian_certificate(params, sne)
        return dataclasses.replace(
            cert, **{name: scale * getattr(cert, name) for name, scale in scales.items()}
        )

    return certificate


# per case, the property checks that fail and the function, named by its
# import path, replaced so that they do
BROKEN_INPUTS = {
    # D_i one off everywhere
    "gradient": (
        "gradient",
        "refgame.analysis.log_rev_derivative",
        lambda *a: np.add(rg.log_rev_derivative(*a), 1.0),
    ),
    # firm L's own-price partial in the other-price column and back; the
    # reference columns, all the bounds check reads, are intact, and the
    # hessian check, which builds M from this table, fails too
    "gradient_partials": (
        "gradient,hessian",
        "refgame.analysis.scaled_derivative_partials",
        partials_with_L_price_columns_swapped,
    ),
    # bounds of zero that every sample exceeds
    "bounds": ("bounds", "refgame.analysis.bound_constants", lambda params: (0.0, 0.0)),
    # drift pointing away from the SNE
    "drift_grid": ("drift", "refgame.analysis.sne_drift", lambda *a: -rg.sne_drift(*a)),
    # drift of the right sign at half its size, below the proved bound
    "drift_half": ("drift", "refgame.analysis.sne_drift", lambda *a: 0.5 * rg.sne_drift(*a)),
    # a certificate of a market with c_H one part in a million larger
    "hessian": (
        "hessian", "refgame.equilibrium.hessian_certificate", certificate_with_c_H_scaled
    ),
    # a wrong factor in h_HH
    "hessian_diagonal": (
        "hessian", "refgame.equilibrium.hessian_certificate", certificate_with(h_HH=1.001)
    ),
    # the off-diagonal entry's sign flipped
    "hessian_off_diagonal": (
        "hessian", "refgame.equilibrium.hessian_certificate", certificate_with(h_HL=-1.0)
    ),
}


def fail_every_sweep_solve(monkeypatch):
    """Make each ``solve_sne`` of the sweep raise SolverError. Verify's
    own market is solved through ``cli``, which this leaves alone."""

    def fail(params):
        raise rg.SolverError("forced failure")

    monkeypatch.setattr(rg.analysis, "solve_sne", fail)


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
        assert summary["drift_bound_violations"] == "0"
        assert summary["verify_pass"] == "true"

    def test_random_20_seed_3_stdout_frozen(self, capsys):
        assert cli.main(["verify", "--random", "20", "--seed", "3"]) == 0
        assert capsys.readouterr() == (VERIFY_RANDOM_20_SEED_3, "")

    def test_check_properties_returns_the_printed_values(self, fig1, fig1_sne, capsys):
        ledger = rg.check_properties(fig1, fig1_sne, np.random.default_rng(3), 20)
        assert [(name, passed) for name, _, passed in ledger] == [
            ("gradient", True), ("bounds", True), ("drift", True), ("hessian", True),
            ("sweep", True),
        ]
        lines = dict(pair for _, pairs, _ in ledger for pair in pairs)
        assert lines["gradient_states"] == 100 and lines["bounds_samples"] == 10_000
        assert lines["bounds_violations"] == 0 and lines["drift_grid_points"] == 10_000
        assert lines["drift_bound_violations"] == 0 and lines["sweep_total"] == 20
        for key, value in lines.items():
            cli._say(key, value)
        printed = VERIFY_RANDOM_20_SEED_3.splitlines(keepends=True)
        assert capsys.readouterr().out == "".join(printed[2:-1])

    @pytest.mark.parametrize("case", list(BROKEN_INPUTS))
    def test_failed_check_exits_3_with_one_summary(self, capsys, monkeypatch, case):
        name, target, broken = BROKEN_INPUTS[case]
        monkeypatch.setattr(target, broken)
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
        fail_every_sweep_solve(monkeypatch)
        assert cli.main(["verify", "--random", "2"]) == 3
        summary = summary_dict(capsys.readouterr().out)
        assert summary["sweep_contained"] == "0"
        assert summary["sweep_solver_failures"] == "2"
        assert summary["verify_failures"] == "sweep"

    @pytest.mark.parametrize(
        "cases, names",
        [(("hessian", "gradient"), "gradient,hessian"), (("hessian", "sweep"), "hessian,sweep")],
    )
    def test_failure_names_come_in_ledger_order(self, capsys, monkeypatch, cases, names):
        # broken in the reverse of ledger order, named in ledger order
        for case in cases:
            if case == "sweep":
                fail_every_sweep_solve(monkeypatch)
            else:
                _, target, broken = BROKEN_INPUTS[case]
                monkeypatch.setattr(target, broken)
        assert cli.main(["verify", "--random", "2"]) == 3
        assert summary_dict(capsys.readouterr().out)["verify_failures"] == names

    def test_negative_sweep_size_exits_1_with_one_line(self, capsys):
        # it used to print sweep_contained = 0 against sweep_total = -1 and exit 3
        assert cli.main(["verify", "--random", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --random must be >= 0, got -1\n")
        # a negative seed used to exit with numpy's message, which names no flag
        assert cli.main(["verify", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")

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

    @pytest.mark.parametrize(
        "variant, horizon, orbit",
        [
            ("a", 5000, ("1", "760")),  # a fixed point
            ("b", 5000, ("4", "469")),
            ("b", 3000, ("4", "469")),  # seen at the last chunk end
            ("c", 5000, ("1", "760")),  # the learning path of compare
            ("a", 3000, ("1", "760")),
        ],
    )
    def test_orbit_period_and_onset(self, tmp_path, capsys, variant, horizon, orbit):
        out = tmp_path / "o.csv"
        argv = ["figure1", "--variant", variant, "--horizon", str(horizon), "--out", str(out)]
        assert cli.main(argv) == 0
        summary = summary_dict(capsys.readouterr().out)
        assert (summary["orbit_period"], summary["orbit_onset"]) == orbit

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        cli.main(["figure1", "--variant", "a", "--horizon", "1500", "--out", str(out1)])
        cli.main(["figure1", "--variant", "a", "--horizon", "1500", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_variant_a_full_csv_bits(self, tmp_path, capsys):
        # the whole 1e5-period file, frozen from the writer that formatted
        # every cell, on the kernel with the exact complement; the path
        # settles at period 760, so most rows repeat
        out = tmp_path / "a.csv"
        assert cli.main(["figure1", "--variant", "a", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5ad4aa76ac2cf0ea71bbf314e385f3639581a8b845c2406e1014a75e42befd7e"
        )

    def test_variant_b_full_csv_bits(self, tmp_path, capsys):
        # the whole 1e4-period file, frozen from the writer that found
        # repeated rows by comparing bits; the path cycles with period 4
        # from period 469
        out = tmp_path / "b.csv"
        assert cli.main(["figure1", "--variant", "b", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fce54ca88a89ee1372b17eb10deed939511713029ca289f405b1947447f5695d"
        )

    def test_variant_c_policy_csv_bits(self, tmp_path, capsys):
        # the whole 1e5-period joined file, frozen from the same writer
        out = tmp_path / "c.csv"
        assert cli.main(["figure1", "--variant", "c", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "c_policy.csv").read_bytes()).hexdigest() == (
            "44bd6060ab1d612cd4965f72cbf2c61e957c9c782e01a052d3a45d63390ce5ed"
        )

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_summary_frozen(self, tmp_path, capsys, variant):
        assert cli.main(["figure1", "--variant", variant, "--out", str(tmp_path / "f.csv")]) == 0
        out, err = capsys.readouterr()
        lines = [line for line in out.splitlines(keepends=True) if not line.startswith("output")]
        assert ("".join(lines), err) == (FIGURE1_SUMMARIES[variant], "")

    def test_unknown_variant_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["figure1", "--variant", "z"])
        capsys.readouterr()
