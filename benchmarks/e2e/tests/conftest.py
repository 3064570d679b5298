"""Put the harness on the import path (it is a script directory, not a package)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
