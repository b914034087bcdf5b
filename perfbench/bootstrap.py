"""Put the checkout's own ``src`` first on ``sys.path``.

The benchmark always measures the sources next to it, never an installed
copy, and refuses to run without them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_library() -> None:
    src = ROOT / "src"
    if not (src / "peps_forge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no peps_forge sources under {src}")
    sys.path.insert(0, str(src))
