"""The test session's own configuration in ``pyproject.toml``."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_is_one_failure_not_the_end_of_the_session(tmp_path):
    """The session turns every warning into an error, and on a failure
    hypothesis imports libcst, whose import warns. A failing property must
    still be reported as one failure, and the tests after it must run."""
    (tmp_path / "test_child.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st


            @settings(derandomize=True, database=None)
            @given(st.integers())
            def test_property_that_always_fails(n):
                assert n != n


            def test_plain():
                pass
            """
        ),
        encoding="utf-8",
    )
    res = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = res.stdout + res.stderr
    assert res.returncode == 1, output
    assert "1 failed, 1 passed" in res.stdout, output
    assert "INTERNALERROR" not in output
