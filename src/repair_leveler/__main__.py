"""Allow `python -m repair_leveler`."""

import sys

from .cli import run_pipeline

sys.exit(run_pipeline())
