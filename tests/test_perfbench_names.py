"""The benchmark in perfbench/ wraps package names and writes config files;
each name must still exist and each config must still be accepted."""

from pathlib import Path

from netkalman import analysis, config, filtering, gains, model, montecarlo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    # the traced benchmark run looks each name up in its owner's __dict__,
    # so a name it wraps that the package no longer has raises KeyError here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    owners = (analysis, filtering, gains, montecarlo)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert analysis.expected_next_cov is not before[0]["expected_next_cov"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_generated_configs_parse_validate_and_round_trip(monkeypatch, tmp_path):
    # every workload's setup parses and validates these files before any
    # timing, so a config the parser rejects fails the whole run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs

    for workload in inputs.WORKLOADS:
        out_dir = tmp_path / workload
        manifest = inputs.write_inputs(workload, 1, out_dir)
        paths = [Path(job["config"]) for job in manifest["jobs"]]
        paths += [p for p in [out_dir / "warmup.ini"] if p.exists()]
        for path in paths:
            cfg = config.parse_config(path)
            assert model.validate_model(cfg.model).ok, path
            text = config.dump_normalized(cfg)
            again = out_dir / "normalized.ini"
            again.write_text(text)
            assert config.dump_normalized(config.parse_config(again)) == text, path
