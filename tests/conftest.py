"""Make ``src/`` importable for the CLI subprocesses some tests start.

``pythonpath`` in pyproject.toml only reaches this interpreter; exporting
it through PYTHONPATH lets ``python -m piregular`` children find the
package too when it is not installed.
"""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *parts])
