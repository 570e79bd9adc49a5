"""The tolerant flag lookup the example drivers use.

The paper's figures are sweep specs under ``examples/specs/figures/``,
each beside the committed table ``repro-gossip sweep --spec`` prints for
it.  Example scripts are executed by the test suite under pytest's own
``sys.argv``, so :func:`argv_flag` ignores unknown flags and never
crashes on a trailing bare one.
"""

from __future__ import annotations

__all__ = ["argv_flag"]


def argv_flag(argv, name: str, default=None):
    """Value following ``name`` in ``argv``, or ``default`` (never raises).

    The next token must look like a value — a bare flag followed by
    another flag falls back to ``default``.
    """
    if name in argv:
        index = argv.index(name)
        if index + 1 < len(argv) and not argv[index + 1].startswith("--"):
            return argv[index + 1]
    return default
