"""The drift check that the hash tools share.

Each hash tool records the lines it prints.  A change that is meant to
change values updates them and says which lines changed and why, as it
would for goldens; any other change must print them unchanged.
"""

from __future__ import annotations

import sys
from itertools import zip_longest


def check(lines, recorded):
    """Print each of lines as it comes, then every line that differs from
    the recorded line in its place, and exit 1 if one does."""
    drift = []
    for got, want in zip_longest(lines, recorded):
        print(got, flush=True)
        if got != want:
            drift.append((got, want))
    for got, want in drift:
        print("drift: %s\n  recorded: %s" % (got, want))
    sys.exit(1 if drift else 0)
