"""Make the shared test helpers importable from every test package, and
share the parity harness's ``golden`` fixture."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from parity import golden  # noqa: E402,F401
