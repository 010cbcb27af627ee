"""The benchmark in perfbench/ wraps package names; each must still exist."""

from pathlib import Path

from netkalman import analysis, filtering, gains, montecarlo

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
