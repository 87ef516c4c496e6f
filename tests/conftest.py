"""The shared oracles in ``helpers`` check with bare ``assert``.  Pytest
rewrites asserts only in test modules and in modules registered here, and
rewritten asserts run even under ``python -O``, so registering ``helpers``
keeps its checks alive and their failures explained under any flags."""

import pytest

pytest.register_assert_rewrite("helpers")
