"""Fixture tests for the determinism family (RPR1xx)."""

from __future__ import annotations


class TestGlobalNumpyRng:
    def test_flags_module_level_rng_call(self, lint_codes):
        codes = lint_codes(
            """
            import numpy as np

            def draw(n):
                return np.random.default_rng(0).normal(size=n)
            """
        )
        assert codes == ["RPR101"]

    def test_flags_legacy_global_api(self, lint_codes):
        codes = lint_codes(
            """
            import numpy as np

            def shuffle(x):
                np.random.shuffle(x)
            """
        )
        assert codes == ["RPR101"]

    def test_resolves_unaliased_import(self, lint_codes):
        codes = lint_codes(
            """
            import numpy

            def draw():
                return numpy.random.rand(3)
            """
        )
        assert codes == ["RPR101"]

    def test_generator_annotation_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            import numpy as np

            def draw(rng: np.random.Generator) -> np.ndarray:
                if isinstance(rng, np.random.Generator):
                    return rng.normal(size=3)
                return np.zeros(3)
            """
        )
        assert codes == []

    def test_ensure_rng_call_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            from repro.utils.rng import ensure_rng

            def draw(seed):
                return ensure_rng(seed).normal(size=3)
            """
        )
        assert codes == []


class TestStdlibRandom:
    def test_flags_plain_import(self, lint_codes):
        assert lint_codes("import random\n") == ["RPR102"]

    def test_flags_from_import(self, lint_codes):
        assert lint_codes("from random import shuffle\n") == ["RPR102"]

    def test_other_modules_not_flagged(self, lint_codes):
        assert lint_codes("import secrets\nfrom os import path\n") == []

    def test_randomish_names_not_flagged(self, lint_codes):
        assert lint_codes("import randomart\nfrom mypkg.random_util import x\n") == []


class TestWallClock:
    def test_flags_time_time(self, lint_codes):
        codes = lint_codes(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert codes == ["RPR103"]

    def test_flags_from_imported_time(self, lint_codes):
        codes = lint_codes(
            """
            from time import time

            def stamp():
                return time()
            """
        )
        assert codes == ["RPR103"]

    def test_flags_datetime_now(self, lint_codes):
        codes = lint_codes(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert codes == ["RPR103"]

    def test_perf_counter_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            import time

            def tick():
                return time.perf_counter()
            """
        )
        assert codes == []


class TestSetOrder:
    def test_flags_for_loop_over_set_literal(self, lint_codes):
        codes = lint_codes(
            """
            def walk():
                out = []
                for x in {3, 1, 2}:
                    out.append(x)
                return out
            """
        )
        assert codes == ["RPR104"]

    def test_flags_list_of_set_call(self, lint_codes):
        assert lint_codes("ids = list(set([3, 1, 2]))\n") == ["RPR104"]

    def test_flags_annotated_set_parameter(self, lint_codes):
        codes = lint_codes(
            """
            def pick(days: set[int] | list[int]):
                return list(days)
            """
        )
        assert codes == ["RPR104"]

    def test_flags_assigned_set_name(self, lint_codes):
        codes = lint_codes(
            """
            def walk(xs):
                seen = set(xs)
                return tuple(seen)
            """
        )
        assert codes == ["RPR104"]

    def test_flags_list_comprehension_over_set(self, lint_codes):
        codes = lint_codes(
            """
            def walk(xs):
                seen = set(xs)
                return [x + 1 for x in seen]
            """
        )
        assert codes == ["RPR104"]

    def test_flags_numpy_array_of_set(self, lint_codes):
        codes = lint_codes(
            """
            import numpy as np

            def arr(xs):
                return np.array(set(xs))
            """
        )
        assert codes == ["RPR104"]

    def test_sorted_is_the_sanctioned_boundary(self, lint_codes):
        codes = lint_codes(
            """
            def walk(days: set[int]):
                for day in sorted(days):
                    yield day
                return list(sorted(days))
            """
        )
        assert codes == []

    def test_order_free_consumers_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            def stats(xs):
                seen = set(xs)
                return len(seen), sum(seen), min(seen), max(seen), 3 in seen
            """
        )
        assert codes == []

    def test_set_comprehension_over_set_not_flagged(self, lint_codes):
        # A set built from a set stays order-insensitive.
        codes = lint_codes(
            """
            def shrink(pool: set[int]):
                return {k for k in pool if k > 2}
            """
        )
        assert codes == []

    def test_generator_into_sorted_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            def walk(pool: set[int]):
                return sorted(k * 2 for k in pool)
            """
        )
        assert codes == []

    def test_membership_on_plain_list_not_flagged(self, lint_codes):
        assert lint_codes("ids = list([3, 1, 2])\n") == []


class TestTimingRatioAssert:
    TEST_PATH = "tests/pkg/test_speed.py"

    INLINE = """
        import time

        def test_fast():
            t0 = time.perf_counter()
            slow()
            slow_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            fast()
            fast_s = time.perf_counter() - t0
            assert slow_s / fast_s > 2.0
        """

    def test_flags_inline_quotient(self, lint_codes):
        assert lint_codes(self.INLINE, path=self.TEST_PATH) == ["RPR105"]

    def test_only_under_tests(self, lint_codes):
        assert lint_codes(self.INLINE, path="benchmarks/test_speed.py") == []

    def test_flags_named_ratio_and_imported_timer(self, lint_codes):
        codes = lint_codes(
            """
            from time import monotonic

            def test_overhead():
                timings = {}
                for name in ("plain", "traced"):
                    start = monotonic()
                    run(name)
                    timings[name] = monotonic() - start
                overhead = round((timings["traced"] - timings["plain"]) / timings["plain"], 3)
                assert 0 <= overhead < 0.05
            """,
            path=self.TEST_PATH,
        )
        assert codes == ["RPR105"]

    def test_flags_accumulated_timings(self, lint_codes):
        codes = lint_codes(
            """
            import time

            def test_speedup():
                before = after = 0.0
                for _ in range(3):
                    t = time.perf_counter_ns()
                    old()
                    before += time.perf_counter_ns() - t
                    t = time.perf_counter_ns()
                    new()
                    after += time.perf_counter_ns() - t
                speedup = before // after
                assert speedup >= 2, speedup
            """,
            path=self.TEST_PATH,
        )
        assert codes == ["RPR105"]

    def test_timing_over_a_count_not_flagged(self, lint_codes):
        # A per-call budget divides a timing by a count, not by a timing.
        codes = lint_codes(
            """
            import time

            def test_cheap(calls=1000):
                t0 = time.perf_counter()
                for _ in range(calls):
                    op()
                per_call = (time.perf_counter() - t0) / calls
                assert per_call < 5e-6
            """,
            path=self.TEST_PATH,
        )
        assert codes == []

    def test_non_timing_ratio_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            import time

            def test_hits():
                t0 = time.perf_counter()
                hits, total = serve()
                elapsed = time.perf_counter() - t0
                assert hits / total > 0.5
                report(elapsed)
            """,
            path=self.TEST_PATH,
        )
        assert codes == []

    def test_timings_from_another_function_not_flagged(self, lint_codes):
        codes = lint_codes(
            """
            import time

            def _time(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0

            def test_fast():
                assert _time(slow) / _time(fast) > 2.0
            """,
            path=self.TEST_PATH,
        )
        assert codes == []
