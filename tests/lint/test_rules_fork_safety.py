"""Fixture tests for the fork-safety family (RPR2xx)."""

from __future__ import annotations


class TestTaskMutatesGlobal:
    def test_flags_global_statement_in_task(self, lint_codes):
        codes = lint_codes(
            """
            _TOTAL = 0

            def _sum_task(task, ctx):
                global _TOTAL
                _TOTAL = _TOTAL + task
                return task

            def run(pool, chunks):
                return pool.map(_sum_task, chunks)
            """
        )
        assert codes == ["RPR202"]

    def test_flags_module_dict_write_in_task(self, lint_codes):
        codes = lint_codes(
            """
            _CACHE = {}

            def _cache_task(task, ctx):
                _CACHE[task] = ctx
                return task

            def run(pool, chunks):
                return pool.map(_cache_task, chunks)
            """
        )
        assert codes == ["RPR202"]

    def test_local_mutation_in_task_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            def _local_task(task, ctx):
                cache = {}
                cache[task] = ctx
                return cache

            def run(pool, chunks):
                return pool.map(_local_task, chunks)
            """
        )
        assert codes == []

    def test_non_task_function_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
            """
        )
        assert codes == []


class TestUnownedMemmap:
    def test_flags_bare_np_memmap(self, lint_codes):
        codes = lint_codes(
            """
            import numpy as np

            def load(path, n):
                block = np.memmap(path, dtype="<f8", mode="r", shape=(n,))
                return block.sum()
            """
        )
        assert codes == ["RPR205"]

    def test_flags_open_memmap(self, lint_codes):
        codes = lint_codes(
            """
            from numpy.lib.format import open_memmap

            def load(path):
                return open_memmap(path, mode="r")
            """
        )
        assert codes == ["RPR205"]

    def test_with_block_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            import numpy as np

            def load(path, n):
                with np.memmap(path, dtype="<f8", mode="r", shape=(n,)) as block:
                    return block.sum()
            """
        )
        assert codes == []

    def test_repo_config_sanctions_storage_module(self):
        # The repo's own pyproject marks open_block()'s home module as
        # the one place allowed to call np.memmap directly.
        from pathlib import Path

        from repro.lint import load_config

        config = load_config(Path(__file__).resolve().parents[2])
        assert config.rule_excluded("RPR205", "src/repro/shard/storage.py")
        assert not config.rule_excluded("RPR205", "src/repro/core/sage.py")

    def test_unrelated_memmap_name_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            import mmap

            def load(fh):
                return mmap.mmap(fh.fileno(), 0)
            """
        )
        assert codes == []
