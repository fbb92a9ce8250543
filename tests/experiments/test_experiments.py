"""Scenario registry at micro scale: every table/figure regenerates."""

import os
import re

import pytest

from repro.api import Scale, Session, scenario, scenario_names
from repro.backends import make_spec
from repro.sweep.spec import ps_for_workers
from repro.experiments.cli import main

MICRO = Scale(
    name="micro",
    models=("AlexNet v2",),
    worker_counts=(2,),
    ps_counts=(1,),
    iterations=2,
    warmup=0,
    consistency_runs=12,
    loss_iterations=20,
)


@pytest.fixture
def session(tmp_path):
    with Session(scale=MICRO, results_dir=str(tmp_path), jobs=1) as session:
        yield session


#: (variable, bad value, what the error must say)
BAD_ENV = (
    ("REPRO_SCALE", "fulll",
     r"unknown scale 'fulll'.*expected one of.*did you mean 'full'\?"),
    ("REPRO_JOBS", "two", r"\$REPRO_JOBS must be an integer, got 'two'"),
    ("REPRO_CACHE_MAX_MB", "lots",
     r"\$REPRO_CACHE_MAX_MB must be a number, got 'lots'"),
)


def test_make_context_env(monkeypatch, tmp_path, capsys):
    for name, _, _ in BAD_ENV:
        monkeypatch.delenv(name, raising=False)
    assert Session(scale=None).scale.name == "quick"
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert Session(scale=None).scale.name == "full"
    assert Session(scale="quick").scale.name == "quick"  # explicit wins
    monkeypatch.delenv("REPRO_SCALE")
    # jobs <= 1 stays serial and in-process
    monkeypatch.setenv("REPRO_JOBS", "0")
    with Session(cache=False) as session:
        assert session.jobs == 0
        assert session.sweep._map(len, [[1], [2, 3]]) == [1, 2]
        assert session.sweep._pool is None
    monkeypatch.delenv("REPRO_JOBS")

    # a bad value is an error naming the variable, never a silent default;
    # the CLI reports it through argparse
    for name, value, message in BAD_ENV:
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=message):
            Session(scale=None)
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--results-dir", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        assert re.search(message, capsys.readouterr().err)
        monkeypatch.delenv(name)


def test_ps_for_workers_ratio():
    assert [ps_for_workers(w) for w in (1, 2, 4, 8, 16)] == [1, 1, 1, 2, 4]


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_scenario_produces_rows_and_csv(session, name):
    out = session.run(scenario(name))
    assert out.rows, f"{name} produced no rows"
    paths = out.save(session.results_dir)
    assert os.path.exists(paths[out.name])
    assert out.text
    assert out.provenance.scenario == name


def test_table1_rows_cover_all_models(session):
    out = session.run("table1")
    assert len(out.rows) == 10
    assert all("params" in r and "ops_inf" in r for r in out.rows)


def test_fig8_reports_identical_curves(session):
    out = session.run("fig8")
    assert out.extras["identical"] is True


def test_fig12_extras_have_fit(session):
    out = session.run("fig12")
    assert 0.0 <= out.extras["r2"] <= 1.0
    assert out.extras["p95_tac"] >= out.extras["p95_baseline"]


# -- make_spec error paths ---------------------------------------------

def test_make_spec_unknown_backend_lists_available():
    with pytest.raises(KeyError, match="unknown communication backend"):
        make_spec("carrier-pigeon", n_workers=2)
    with pytest.raises(KeyError, match="allreduce"):
        make_spec("carrier-pigeon", n_workers=2)


def test_make_spec_bad_kwargs_names_accepted_fields():
    with pytest.raises(TypeError) as exc:
        make_spec("ps", n_workers=2, warp_drive=9)
    message = str(exc.value)
    assert "invalid arguments for backend 'ps'" in message
    assert "ClusterSpec" in message
    # the spec type's accepted fields are spelled out
    assert "n_workers" in message and "n_ps" in message and "workload" in message


def test_make_spec_bad_kwargs_collective_backend():
    with pytest.raises(TypeError, match="partition_bytes"):
        make_spec("allreduce", n_workers=2, topology="ring", chunx=1)


def test_make_spec_valid_specs_still_build():
    assert make_spec("ps", n_workers=4, n_ps=1).n_workers == 4
    spec = make_spec("allreduce", n_workers=4, topology="ring")
    assert spec.topology == "ring"


# -- the deprecated driver layer stays deleted --------------------------

def test_driver_shims_are_gone():
    """The legacy ``repro.experiments.<driver>.run(...)`` modules were
    deprecated for a release and then removed; scenarios are reachable
    only through the registry/engine (and the CLI shell over it)."""
    import importlib

    for name in ("table1", "fig7", "allreduce", "_shim", "common"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.experiments.{name}")
    # one execution context: the Session facade
    import repro.api

    for name in ("Context", "make_context", "execute_scenario"):
        assert not hasattr(repro.api, name) and name not in repro.api.__all__


# -- CLI ----------------------------------------------------------------

def test_cli_runs_selected_scenario(tmp_path, capsys):
    rc = main(["table1", "--results-dir", str(tmp_path), "--quiet"])
    assert rc == 0
    assert os.path.exists(os.path.join(tmp_path, "table1_models.csv"))


def test_cli_rejects_unknown_scenario_with_suggestion(capsys):
    with pytest.raises(SystemExit):
        main(["figure99"])
    err = capsys.readouterr().err
    assert "unknown scenario" in err


def test_cli_suggests_near_matches(capsys):
    with pytest.raises(SystemExit):
        main(["fig77"])
    err = capsys.readouterr().err
    assert "did you mean" in err and "fig7" in err


def test_cli_rejects_unknown_name_even_alongside_all(capsys):
    # regression: 'all' must not swallow misspelled scenario names
    with pytest.raises(SystemExit):
        main(["all", "fig77"])
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "fig77" in err


def test_cli_list_enumerates_surface(capsys):
    rc = main(["list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    assert "allreduce_comparison.csv" in out
    assert "ps" in out and "allreduce" in out  # backends
    assert "trace exporters" in out
    assert "platforms" in out


def test_cli_list_is_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["list", "table1"])
