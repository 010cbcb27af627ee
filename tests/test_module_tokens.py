"""Every package module stays below the first compile-peak step of tools/module_tokens.py.

On CPython 3.11, compiling a module of 4096 tokens or more raises the
peak memory of ``compile()`` by about 0.23 MB.  Without cached bytecode
that peak is what an import adds to a process's high-water mark, which
the benchmark's ``peak_rss_mb`` reads against a 0.1 MB bound.  A change
that adds code to a module near the step learns here that it must make
room elsewhere in that module.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_module_reaches_the_first_compile_peak_step(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import module_tokens

    tokens = {path.name: module_tokens.module_tokens(path)
              for path in sorted((ROOT / "src" / "netkalman").glob("*.py"))}
    assert tokens
    over = {name: count for name, count in tokens.items() if count >= module_tokens.FIRST_STEP}
    assert not over, (
        f"{', '.join(f'{name} has {count} tokens' for name, count in over.items())}, "
        f"at or past the {module_tokens.FIRST_STEP}-token compile-peak step that raises "
        "peak_rss_mb; make room in the module, unless ROADMAP item 6 has changed what "
        "peak_rss_mb measures")
