"""Unit tests of the benchmark's own logic (run with the tier-1 suite)."""

import math

import pytest

import harness
import workloads


def fake_clock(*ticks):
    return iter(ticks).__next__


class TestSelfTimes:
    def test_children_are_subtracted_from_their_parent(self):
        tracer = harness.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("b"):
                pass
        assert harness.self_times(tracer.spans) == {
            "root": 10.0 - 3.0 - 1.0,
            "a": 3.0 - 1.0,
            "leaf": 1.0,
            "b": 1.0,
        }

    def test_repeated_spans_add_up_by_name(self):
        tracer = harness.Tracer(clock=fake_clock(0.0, 2.0, 5.0, 6.0))
        for _ in range(2):
            with tracer.span("solve"):
                pass
        assert harness.self_times(tracer.spans) == {"solve": 3.0}

    def test_span_closes_when_the_call_raises(self):
        tracer = harness.Tracer(clock=fake_clock(0.0, 1.0, 2.0, 4.0))
        with tracer.span("root"):
            with pytest.raises(ZeroDivisionError):
                with tracer.span("fails"):
                    1 / 0
        assert harness.self_times(tracer.spans) == {"root": 3.0, "fails": 1.0}


class TestPercentile:
    def test_failed_samples_sort_last_without_nan(self):
        samples = [3.0, math.inf, 1.0, 2.0, math.inf]
        assert harness.percentile(samples, 40) == 2.0
        assert harness.percentile(samples, 60) == 3.0
        assert harness.percentile(samples, 70) == math.inf
        assert harness.beyond(samples, 2.0) == 3

    def test_nearest_rank_on_finite_samples(self):
        samples = list(range(1, 101))
        assert harness.percentile(samples, 50) == 50
        assert harness.percentile(samples, 90) == 90
        assert harness.percentile(samples, 100) == 100
        assert harness.beyond(samples, 90) == 10

    @pytest.mark.parametrize("q", [0.0, 101.0])
    def test_rejects_q_outside_range(self, q):
        with pytest.raises(ValueError):
            harness.percentile([1.0], q)


class TestTrajectoryCsvCheck:
    HEADER = "t,x,y"

    def write(self, tmp_path, text):
        path = tmp_path / "traj.csv"
        path.write_text(text, encoding="ascii", newline="")
        return path

    def test_accepts_a_well_formed_file(self, tmp_path):
        path = self.write(tmp_path, "t,x,y\n0,1.5,2\n1,1.25,2.5\n2,1e-3,3\n")
        assert harness.check_trajectory_csv(path, self.HEADER, 3) == []

    @pytest.mark.parametrize(
        "text",
        [
            "t,x,z\n0,1.5,2\n1,1.25,2.5\n2,1e-3,3\n",  # header
            "t,x,y\n0,1.5,2\n1,1.25,2.5\n",  # a row missing
            "t,x,y\n0,1.5,2\n1,1.25,2.5\n2,1e-3,3",  # truncated terminator
            "t,x,y\n0,1.5,2\n1,1.25\n2,1e-3,3\n",  # a field missing
            "t,x,y\n0,1.5,2\n2,1.25,2.5\n2,1e-3,3\n",  # period out of order
            "t,x,y\n0,1.5,2\n1,1.2#5,2.5\n2,1e-3,3\n",  # garbled number
            "t,x,y\n0,1.5,2\n1,nan,2.5\n2,1e-3,3\n",  # non-finite value
        ],
    )
    def test_rejects_a_corrupted_file(self, tmp_path, text):
        path = self.write(tmp_path, text)
        assert harness.check_trajectory_csv(path, self.HEADER, 3)


class TestTracedLayers:
    def test_spans_and_counts_at_layer_boundaries_then_restored(self):
        import refgame
        from refgame import cli, equilibrium

        original = equilibrium.solve_sne
        tracer = harness.Tracer()
        with workloads.traced(tracer):
            assert cli.solve_sne is not original
            sol = equilibrium.solve_sne(refgame.figure1_params())
            with pytest.raises(ValueError):
                equilibrium.equilibrium_path(refgame.figure1_params(), sol.prices, 0)
        assert cli.solve_sne is original and equilibrium.solve_sne is original
        assert refgame.solve_sne is original
        assert [s.name for s in tracer.spans] == [
            "equilibrium.solve_sne",
            "equilibrium.equilibrium_path",
        ]
        assert tracer.notes["equilibrium.solve_sne.iterations"] == [sol.iterations]
        assert tracer.notes["equilibrium.equilibrium_path.failed"] == [1]
        assert "equilibrium.solve_sne.failed" not in tracer.notes


class TestRounds:
    class Workload:
        pass_s = 2.0

    def test_count_follows_the_seconds_asked_for_not_the_clock(self):
        assert workloads.rounds(self.Workload, 30.0, trace=False) == 15
        # a traced round makes two passes
        assert workloads.rounds(self.Workload, 30.0, trace=True) == 7

    def test_never_fewer_than_the_minimum(self):
        assert workloads.rounds(self.Workload, 1.0, trace=True) == workloads.MIN_ROUNDS
