"""Shared fixtures."""

import pytest

from repro import registry


@pytest.fixture
def restore_registries():
    """Undo every registration the test makes — direct ``register`` calls,
    ``register_*`` decorators, ``--plugin`` files — in every registry."""
    registry.ensure_builtins()
    saved = [(reg, dict(reg._defs)) for reg in vars(registry).values()
             if isinstance(reg, registry.Registry)]
    yield
    for reg, defs in saved:
        reg._defs = defs
