"""Shared test settings: property tests draw the same examples every run,
whichever tests are selected."""

try:
    from hypothesis import settings
    from hypothesis.internal.conjecture import providers
except ImportError:         # tests/test_properties.py skips itself
    settings = None

if settings is not None:
    settings.register_profile("ordext", derandomize=True, database=None,
                              deadline=None, max_examples=100)
    settings.load_profile("ordext")
    # Hypothesis mixes the literal constants of every local module loaded so
    # far (the ordext modules a selection has imported) into its examples,
    # so a test's examples would depend on which tests run with it.  This
    # private hook builds that pool; an empty pool leaves the examples to
    # the test alone.  pyproject pins the Hypothesis version that has it.
    providers._get_local_constants = providers.Constants
