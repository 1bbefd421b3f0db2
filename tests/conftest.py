import contextlib
import io

import pytest

from takahashi import cli


@pytest.fixture(scope="session")
def verify_paper_json():
    """One in-process `verify-paper --json` run for the whole session, as
    (exit code, stdout): the claims suite takes about a second a run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify-paper", "--json"])
    return rc, out.getvalue()
