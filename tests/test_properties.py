"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regression import mean_abs_pct_error, ols, predict
from repro.core.caches import CacheGeometry
from repro.core.isa import Instruction, InstrClass
from repro.core.mma import MMAUnit, mma_gemm
from repro.core.pipeline import _Ports
from repro.power.lfsr import LfsrCounter, LfsrDecoder
from repro.workloads.trace import Trace
from tests.walk_oracle import Cache, _Pool, _Ring

_DECODER8 = LfsrDecoder(8)


class TestLfsrProperties:
    @given(st.integers(min_value=0, max_value=254))
    def test_count_roundtrip(self, n):
        counter = LfsrCounter(8)
        counter.tick(n)
        assert _DECODER8.decode(counter.state) == n

    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=6))
    def test_ticks_compose(self, chunks):
        a = LfsrCounter(8)
        b = LfsrCounter(8)
        for chunk in chunks:
            a.tick(chunk)
        b.tick(sum(chunks))
        assert a.state == b.state


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                    min_size=1, max_size=200))
    def test_immediate_rehit(self, addresses):
        cache = Cache(CacheGeometry(4096, 4, 2))
        for addr in addresses:
            cache.access(addr)
            assert cache.access(addr)       # just-touched line is MRU

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16),
                    min_size=1, max_size=100))
    def test_misses_never_exceed_accesses(self, addresses):
        cache = Cache(CacheGeometry(1024, 2, 2))
        for addr in addresses:
            cache.access(addr)
        assert 0 <= cache.misses <= cache.accesses

    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_probe_consistent_with_access(self, addr):
        cache = Cache(CacheGeometry(2048, 4, 2))
        cache.access(addr)
        assert cache.probe(addr)


class TestResourceProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=8))
    def test_ring_waits_are_monotone(self, releases, capacity):
        ring = _Ring(capacity)
        waits = []
        for release in releases:
            waits.append(ring.earliest_alloc())
            ring.alloc(max(release, waits[-1]))
        # with monotone releases, allocation gates never move backwards
        assert all(b >= 0 for b in waits)

    @given(st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=50),
           st.integers(min_value=1, max_value=6))
    def test_pool_gate_is_min_occupant(self, releases, capacity):
        pool = _Pool(capacity)
        occupants = []
        for release in releases:
            gate = pool.earliest_alloc()
            if len(occupants) >= capacity:
                assert gate == min(occupants)
            else:
                assert gate == 0
            pool.alloc(release)
            if len(occupants) >= capacity:
                occupants.remove(min(occupants))
            occupants.append(release)

    @given(st.lists(st.integers(min_value=0, max_value=300),
                    min_size=1, max_size=80),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=50)
    def test_ports_capacity_never_exceeded(self, readies, count):
        ports = _Ports(count)
        granted = [ports.issue(r) for r in readies]
        per_cycle = {}
        for g in granted:
            per_cycle[g] = per_cycle.get(g, 0) + 1
        assert max(per_cycle.values()) <= count
        # every grant is at or after its request
        assert all(g >= r for g, r in zip(granted, readies))


class TestTraceProperties:
    @given(st.integers(min_value=10, max_value=300),
           st.integers(min_value=5, max_value=80))
    def test_windows_cover_most_of_trace(self, n, window):
        instrs = [Instruction(iclass=InstrClass.FX, pc=4 * i)
                  for i in range(n)]
        trace = Trace(name="t", instructions=instrs)
        if n < window // 2:
            return
        windows = trace.windows(window)
        covered = sum(len(w) for w in windows)
        assert n - window // 2 <= covered <= n

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=50))
    def test_repeated_length(self, times, n):
        instrs = [Instruction(iclass=InstrClass.FX) for _ in range(n)]
        trace = Trace(name="t", instructions=instrs)
        assert len(trace.repeated(times)) == times * n


class TestMmaProperties:
    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_gemm_matches_numpy(self, m, n, k):
        rng = np.random.default_rng(m * 100 + n * 10 + k)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        np.testing.assert_allclose(mma_gemm(a, b, dtype="fp64"), a @ b,
                                   rtol=1e-9, atol=1e-9)

    @given(st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=4, max_size=4),
           st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=4, max_size=4))
    def test_ger_negate_is_inverse(self, x, y):
        unit = MMAUnit()
        unit.xxsetaccz(0)
        unit.ger(0, x, y, dtype="fp32")
        unit.ger(0, x, y, dtype="fp32", negate=True)
        np.testing.assert_allclose(unit.xxmfacc(0), 0.0, atol=1e-3)


class TestRegressionProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30)
    def test_ols_exact_on_noiseless_data(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 2))
        true = rng.standard_normal(2)
        y = x @ true
        coef = ols(x, y, intercept=False)
        pred = predict(x, coef, intercept=False)
        assert mean_abs_pct_error(y + 1e3, pred + 1e3) < 1e-6
