"""Tests of the benchmark itself: seeded generation, the per-op oracles and
the tracer.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_name  # noqa: E402


def _files(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a")
    again = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    assert [op.label for op in first.cycle] == [op.label for op in again.cycle]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert sorted(op.label for op in first.cycle) == sorted(op.label for op in other.cycle)
    assert ([op.label for op in first.cycle], _files(tmp_path / "a")) != (
        [op.label for op in other.cycle],
        _files(tmp_path / "c"),
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_op_of_a_cycle_meets_its_oracle(name, tmp_path):
    workload = workloads.build(name, 3, tmp_path)
    assert workload.warmup in workload.cycle
    for op in workload.cycle:
        latency, mismatch, _ = run.run_op(op)
        assert mismatch is None, (op.label, mismatch)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_negative_op_fails_exactly_the_named_checks(seed, tmp_path):
    workload = workloads.build("certify-dense", seed, tmp_path)
    (negative,) = [op for op in workload.cycle if op.label.endswith("flipped")]
    outcome = negative.run()
    assert outcome.code == 1
    assert negative.check(outcome) is None
    # The positive oracle rejects the same outcome.
    assert workloads.report_check(0, "pass")(outcome) is not None


def test_dense_images_stay_near_their_work_targets(tmp_path):
    from maninforge.fileio import parse_triple

    workloads.build("certify-dense", 5, tmp_path)
    for label, _, _, target, _ in workloads.DENSE_IMAGES:
        h = parse_triple((tmp_path / f"{label}.triple").read_text()).algebra
        assert abs(workloads.nested_bracket_terms(h) - target) <= 0.2 * target, label


def test_twist_fixed_skew_has_the_requested_entries():
    import random

    h = workloads.sl2_sum(4)
    lam = workloads.twist_fixed_skew(h, 6, random.Random(0))
    assert len(lam.entries) == 12
    assert lam.apply_per_slot([h.phi, h.phi]) == lam
    assert lam.swap() == -lam


def test_oracles_count_wrong_outcomes():
    ok = workloads.CliResult(0, '{"verdict": "pass", "failures": [], "result": "0 2 3 1\\n"}', "")
    check = workloads.report_check(0, "pass", result=workloads._is_permutation(4))
    assert check(ok) is None
    assert check(workloads.CliResult(1, ok.stdout, "")) is not None
    assert check(workloads.CliResult(0, "not json", "")) is not None
    assert check(workloads.CliResult(0, ok.stdout.replace("0 2 3 1", "0 2 2 1"), "")) is not None
    digest = workloads.report_check(0, "pass", result=workloads._digest_is(workloads.POLYUBLE_D3_N2_SHA256))
    assert digest(ok) is not None
    failing = workloads.report_check(1, "fail", ("hom_jacobi",))
    extra = '{"verdict": "fail", "failures": [{"check": "hom_jacobi"}, {"check": "quadratic.invariant"}]}'
    assert failing(workloads.CliResult(1, extra, "")) is not None


def test_run_op_counts_a_raising_op_as_a_mismatch():
    def boom():
        raise RuntimeError("broken")

    _, mismatch, _ = run.run_op(workloads.Op("boom", boom, lambda outcome: None))
    assert mismatch is not None and "RuntimeError" in mismatch
    m = run.run_cycles([workloads.Op("boom", boom, lambda outcome: None)], 0.0)
    assert m.latencies == [None] and len(m.failures) == 1


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_PROBE_S
    sampler = run.SpeedSampler()
    # Samples at t = 0, 1, ..., 9: the kernel ran at the reference speed, then at half.
    sampler.at = [float(t) for t in range(10)]
    sampler.probes = [ref] * 5 + [2 * ref] * 5
    sampler.costs = [0.01] * 10
    # An op over t in [6.5, 7.5) had one handler inside it; it and the two
    # samples to either side ran at half speed.
    assert sampler.at_reference([6.5], [1.0]) == [pytest.approx((1.0 - 0.01) / 2)]
    # Over [2.5, 4.5): samples 1 to 4 at full speed, 5 and 6 at half.
    assert sampler.at_reference([2.5], [2.0]) == [pytest.approx((2.0 - 0.02) / (8 / 6))]
    # Over [1.5, 8.5): samples 0 to 9, less the fastest and the slowest.
    assert sampler.at_reference([1.5], [7.0]) == [pytest.approx((7.0 - 0.07) / 1.5)]
    # An op with no handler inside is scaled by the samples around it.
    assert sampler.at_reference([0.2], [0.5]) == [pytest.approx(0.5)]


def test_the_sampler_probes_while_entered_and_stops_on_exit():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(sampler.probes)
    assert taken >= 3 and len(sampler.at) == len(sampler.costs) == taken
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_cycle_holds_five_ops_of_distinct_labels(name, tmp_path):
    cycle = workloads.build(name, 1, tmp_path).cycle
    assert len({op.label for op in cycle}) == len(cycle) == 5


def test_identity_trials_take_the_next_lambda_each_call(tmp_path):
    cycle = workloads.build("yang-baxter", 2, tmp_path).cycle
    (trial,) = [op for op in cycle if op.label == "identity D3"]
    residuals = [trial.run()[0] for _ in range(workloads.LATENCY_CYCLES + 1)]
    assert len({str(r.entries) for r in residuals[:-1]}) > 1
    assert residuals[-1] == residuals[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    ranked = [float(i) for i in range(40)]
    value, percentile, beyond = run.tail(ranked)
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert run.tail([1.0, 2.0]) == (1.0, 50.0, 1)


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every maninforge module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "maninforge" or name.startswith("maninforge.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(f"{name}.{attr}", cattr)] = cvalue
    return out


def test_tracer_rebinds_imported_names_and_restores_every_one():
    import maninforge.cli  # noqa: F401  (loads every module)
    from maninforge import core, homlie, manin

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert core.mat_vec is not before[("maninforge.core", "mat_vec")]
        assert manin.mat_vec is core.mat_vec and homlie.mat_vec is core.mat_vec
        assert vars(core.Subspace)["span"] is not before[("maninforge.core.Subspace", "span")]
        assert core.Subspace.span(2, [[1, 0]]).dim == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_self_times_fit_inside_each_op(tmp_path):
    from maninforge import fileio
    from maninforge.manin import special_linear_data, triple_double

    path = tmp_path / "d2.triple"
    path.write_text(fileio.format_triple(triple_double(special_linear_data(2))))
    cycle = [
        workloads.cli_op("verify", ["verify", "manin", str(path), "--json"], workloads.report_check(0, "pass")),
        workloads.cli_op(
            "snake",
            ["snake", "-m", "2", "-n", "2", "--verify", str(path), "--json"],
            workloads.report_check(0, "pass"),
        ),
    ]
    tracer = Tracer()
    with tracer:
        m = run.run_cycles(cycle, 0.0, tracer=tracer)
    assert not m.failures
    own = tracer.self_by_op()
    assert set(own) == {0, 1}
    for op, seconds in own.items():
        assert 0.0 < seconds <= m.latencies[op]
    summary = tracer.summary()
    assert summary["cli.run"]["calls"] == 2
    assert summary["homlie.bracket_basis"]["calls"] > 0
    assert "homlie.bracket_basis" not in tracer.names  # counted, never spanned
    assert summary["polyuble.verify_snake_iso"]["total_s"] <= m.latencies[1]


def test_span_names_follow_the_metric_names():
    assert span_name("homlie.HomLieAlgebra.bracket") == "homlie.bracket"
    assert span_name("fileio.parse_triple") == "fileio.parse"
    assert span_name("fileio.format_tensor") == "fileio.format"
    assert span_name("core.Subspace.contains") == "core.Subspace.contains"


def test_benchmark_spec_lists_what_the_runs_report():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
