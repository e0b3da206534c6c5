"""Shared test settings: property tests draw the same examples every run."""

try:
    from hypothesis import settings
except ImportError:         # tests/test_properties.py skips itself
    settings = None

if settings is not None:
    settings.register_profile("ordext", derandomize=True, database=None,
                              deadline=None, max_examples=100)
    settings.load_profile("ordext")
