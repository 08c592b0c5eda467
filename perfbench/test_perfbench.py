"""Tests of the benchmark itself: span arithmetic, oracles, tracer coverage,
run-directory checks and the metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil

import numpy as np
import pytest
import yaml

import run  # first: pins BLAS threads and puts src/ on sys.path
import checks
import tracer
from tracer import Span, Tracer, summarise

import beamsim
from beamsim import cli, engine, geometry


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span("cli", "main", 0.0, 10.0, -1),
        Span("engine", "run_experiment", 1.0, 9.0, 0),
        Span("engine", "run_cell", 2.0, 6.0, 1),
        Span("channel", "channel_matrix", 3.0, 5.0, 2),
        Span("channel", "antenna_gain", 3.5, 4.5, 3),
        Span("engine", "write_summary", 7.0, 8.0, 1),
    ]
    self_s, calls, write_s = summarise(spans)
    assert self_s == pytest.approx({"cli": 2.0, "engine": 3.0 + 2.0 + 1.0, "channel": 1.0 + 1.0})
    assert sum(self_s.values()) == pytest.approx(10.0)      # the top span's duration
    assert calls == {"cli": 1, "engine": 1, "channel": 1}   # same-module calls do not count
    assert write_s == pytest.approx(8.0 - 4.0)              # run_experiment outside run_cell


def test_sibling_top_level_spans_each_count():
    spans = [Span("geometry", "a", 0.0, 1.0, -1), Span("geometry", "b", 2.0, 2.5, -1)]
    self_s, calls, write_s = summarise(spans)
    assert self_s == pytest.approx({"geometry": 1.5})
    assert calls == {"geometry": 2}
    assert write_s == 0.0


# ---------------------------------------------------------------------------
# oracles against closed forms
# ---------------------------------------------------------------------------

def test_oracles_on_a_diagonal_channel():
    d = np.array([1.0 + 2.0j, -0.5 + 0.1j, 3.0 - 1.0j])
    alpha, p_tx = 0.2, 1.5
    w = checks.explicit_inverse_precoder(np.diag(d), alpha, 3)
    raw = d.conj() / (np.abs(d) ** 2 + alpha)
    expected = np.diag(raw * math.sqrt(3.0 / np.sum(np.abs(raw) ** 2)))
    assert np.allclose(w, expected, rtol=1e-13, atol=0)

    # users sitting on the diagonal see no interference either way
    prec, nonprec = checks.term_by_term_sinr(np.diag(d), [0, 1, 2], w, p_tx)
    assert np.allclose(prec, p_tx * np.abs(d * np.diag(expected)) ** 2, rtol=1e-13)
    assert np.allclose(nonprec, p_tx * np.abs(d) ** 2, rtol=1e-13)


def test_term_by_term_interference():
    h = np.array([[1.0, 0.5j]])
    w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    prec, nonprec = checks.term_by_term_sinr(h, [0], w, 2.0)
    assert prec == pytest.approx([2.0 / (2.0 * 0.25 + 1.0)])
    assert nonprec == pytest.approx([2.0 / (2.0 * 0.25 + 1.0)])


def test_rate_lookup():
    thresholds = np.array([-2.0, 0.0, 3.0])
    efficiencies = np.array([0.5, 1.0, 2.0])
    got = checks.lookup_rate([-5.0, -2.0, -1.0, 0.0, 2.9, 3.0, 40.0], thresholds, efficiencies)
    assert got.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0, 2.0, 2.0]
    # within the slack of a threshold either neighbour is accepted, elsewhere only one
    near = 3.0 - 1e-9
    assert checks.rate_matches(np.array([1.0, 2.0]), np.array([near, near]),
                               thresholds, efficiencies).all()
    assert not checks.rate_matches(np.array([2.0]), np.array([2.5]), thresholds,
                                   efficiencies).any()


# ---------------------------------------------------------------------------
# tracer coverage
# ---------------------------------------------------------------------------

def test_tracer_wraps_every_public_function_and_restores_them():
    modules = tracer.package_modules()
    assert set(run.TRACED_MODULES) <= set(modules)
    originals = {(m, name): fn for m, mod in modules.items()
                 for name, fn in tracer.public_functions(mod).items()}
    methods = [(m, cls, attr, fn) for m, mod in modules.items()
               for cls, attr, fn in tracer.public_methods(mod)]
    assert ("scenario", "deploy_users") in originals
    assert ("geometry", geometry.SectorGrid, "neighbor_order") in [
        (m, cls, attr) for m, cls, attr, _ in methods]
    namespaces = [beamsim, *modules.values()]
    bound = [(ns, attr, obj) for ns in namespaces for attr, obj in vars(ns).items()
             if any(obj is fn for fn in originals.values())]

    with Tracer() as tr:
        for (m, name), fn in originals.items():
            assert getattr(modules[m], name).__wrapped__ is fn, f"{m}.{name}"
        for ns, attr, obj in bound:                  # imported names are wrapped too
            assert getattr(ns, attr).__wrapped__ is obj, f"{ns.__name__}.{attr}"
        assert engine.deploy_users.__wrapped__ is originals[("scenario", "deploy_users")]
        assert engine.aggregate.__wrapped__ is originals[("link_adaptation", "aggregate")]
        for m, cls, attr, fn in methods:
            assert vars(cls)[attr].__wrapped__ is fn, f"{m}.{cls.__name__}.{attr}"
        geometry.satellite_ecef_km(30.0)
        geometry.SectorGrid((0.3, 0.7, 1.0), (math.pi, 2 * math.pi)).neighbor_order(0)

    for ns, attr, obj in bound:
        assert getattr(ns, attr) is obj
    for _, cls, attr, fn in methods:
        assert vars(cls)[attr] is fn
    spans = [(s.module, s.name, s.parent) for s in tr.spans]
    assert spans[:3] == [
        ("geometry", "satellite_ecef_km", -1),
        ("geometry", "geodetic_to_ecef_km", 0),
        ("geometry", "SectorGrid.neighbor_order", -1),
    ]
    assert {s[1:] for s in spans[3:]} == {("SectorGrid.ring_wedge", 2)}


def test_tracer_counts_work_and_attributes_a_real_run(tmp_path):
    argv = _small_run_argv(tmp_path / "run")
    with Tracer() as tr, contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    self_s, calls, write_s = summarise(tr.spans)
    top = tr.spans[0]
    assert (top.module, top.name, top.parent) == ("cli", "main", -1)
    assert sum(self_s.values()) == pytest.approx(top.end - top.start, rel=1e-9)
    assert calls["channel"] == 3 * 2 and calls["cli"] == 1     # 3 per (K, iteration)
    assert tr.counts["scenario.users"] > 0 and tr.counts["scheduling.frames"] > 0
    assert 0.0 < write_s < top.end - top.start


# ---------------------------------------------------------------------------
# run-directory checks
# ---------------------------------------------------------------------------

def _small_run_argv(out):
    data = run.DATA
    return ["run", "--config", str(data / "config_default.yaml"),
            "--beams", str(data / "beams_hex7.json"), "--cluster-size", "2,4",
            "--iterations", "1", "--seed", "5", "--out", str(out)]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_small_run_argv(out)) == 0
    config = yaml.safe_load((run.DATA / "config_default.yaml").read_text())
    return checks.RunSpec(out, config, run.DATA / "beams_hex7.json",
                          run.DATA / "modcod_dvbs2x.csv", (2, 4), 2.5e-3, 1, 5, True)


def _copy(spec, tmp_path):
    shutil.copytree(spec.run_dir, tmp_path / "copy")
    return dataclasses.replace(spec, run_dir=tmp_path / "copy")


def test_checks_pass_on_a_real_run(small_run):
    failures = checks.check_run(small_run, np.random.default_rng(0))
    assert not failures.reasons, dict(failures.reasons)


def _edit_csv(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, reason", [
    (("K2_rho0.0025/gsa/rates.csv", 5, 3, "0.7"), "rate"),
    (("K4_rho0.0025/random/sinr_trace.csv", 1, 5, "99.0"), "oracle"),
    (("summary.csv", 1, 3, "1.5"), "summary"),
    (("K2_rho0.0025/random/schedule.csv", 1, 4, "-1"), "sweep"),
])
def test_checks_catch_a_corrupted_file(small_run, tmp_path, edit, reason):
    spec = _copy(small_run, tmp_path)
    rel, row, column, value = edit
    _edit_csv(spec.run_dir / rel, row, column, value)
    rng = np.random.default_rng(0)
    if reason == "oracle":           # make sure the corrupted frame is sampled
        rng = _always_first_frame()
    failures = checks.check_run(spec, rng)
    assert failures.reasons and failures.wrong_outputs()


class _always_first_frame:
    def choice(self, frames, size, replace):
        return np.asarray(frames)[:size]


def test_reported_cell_failure_is_not_a_wrong_output(small_run, tmp_path):
    spec = _copy(small_run, tmp_path)
    (spec.run_dir / "diagnostics.txt").write_text("K=4 rho=0.0025: boom\n")
    failures = checks.check_run(spec, np.random.default_rng(0))
    assert set(failures.reasons) == {(4, 0)}
    assert failures.raised == {4} and not failures.wrong_outputs()


# ---------------------------------------------------------------------------
# printed metric names
# ---------------------------------------------------------------------------

def test_printed_metrics_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert declared == units
        line = run.result_line(True, 4, 0, {name: 1.0 for name in units}, units)
        printed = json.loads(line)
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared
