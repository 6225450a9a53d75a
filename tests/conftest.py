"""Hypothesis profiles for the suite.

``tier1`` (loaded unless ``--hypothesis-profile`` names another) is
derandomized: every run of the bare Tier-1 command draws the same
examples, so a pass or a failure reproduces.  ``fuzz`` draws fresh
examples from a random seed (pin one with ``--hypothesis-seed``) and
runs five times each test's examples; on failure it prints the blob to
paste into ``@reproduce_failure``.  CI's fuzz step runs::

    PYTHONPATH=src python -m pytest tests/test_redist_walk.py \\
        --hypothesis-profile=fuzz --hypothesis-seed=$SEED \\
        --hypothesis-show-statistics
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False, print_blob=True)

if getattr(settings, "_current_profile", "default") == "default":
    settings.load_profile("tier1")


def pytest_collection_modifyitems(config, items):
    if getattr(settings, "_current_profile", None) != "fuzz":
        return
    for item in items:
        test = getattr(item, "obj", None)
        # A test method is collected bound; its settings live on the
        # function, and a bound method takes no new attributes.
        test = getattr(test, "__func__", test)
        chosen = getattr(test, "_hypothesis_internal_use_settings", None)
        if chosen is not None:
            test._hypothesis_internal_use_settings = settings(
                chosen, max_examples=5 * chosen.max_examples)
