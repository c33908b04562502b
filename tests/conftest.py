"""Shared fixtures: a cold start for the package's memo tables."""

import pytest

from demtensor import crystal, decomp, demazure, keypoly, lspath

# Layers whose lru_caches may be emptied between tests.  The caches of
# `weyl_group` and `root_system` stay: tests hold their objects, and Weyl
# elements compare by identity.
MEMOIZED_LAYERS = (crystal, demazure, decomp, keypoly, lspath)


def clear_layer_caches():
    """Empty every lru_cache defined in MEMOIZED_LAYERS."""
    for module in MEMOIZED_LAYERS:
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


@pytest.fixture
def cold_caches():
    """Run the test on empty memo tables, so an injected fault is reached
    whatever earlier tests computed, and leave no entry it made behind."""
    clear_layer_caches()
    yield
    clear_layer_caches()
