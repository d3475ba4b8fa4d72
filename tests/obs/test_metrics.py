"""Metrics registry: instruments, adoption, exposition, snapshot/diff."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry)


@pytest.fixture(autouse=True)
def no_ambient_registry():
    metrics.uninstall()
    yield
    metrics.uninstall()


class TestInstruments:
    def test_counter(self):
        c = Counter("repro_x", {"disk": "d1"})
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert c.series() == [("repro_x", {"disk": "d1"}, 42)]

    def test_gauge_set_and_dec(self):
        g = Gauge("repro_g")
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8

    def test_histogram_cumulative_buckets(self):
        h = Histogram("repro_h", buckets=(10, 100))
        for v in (5, 5, 50, 500):
            h.observe(v)
        series = {f"{n}{metrics._render_labels(l)}": v
                  for n, l, v in h.series()}
        assert series['repro_h_bucket{le="10"}'] == 2
        assert series['repro_h_bucket{le="100"}'] == 3   # cumulative
        assert series['repro_h_bucket{le="+Inf"}'] == 4
        assert series["repro_h_sum"] == 560
        assert series["repro_h_count"] == 4

    def test_histogram_bounds_are_inclusive(self):
        h = Histogram("repro_h", buckets=(1, 2, 4))
        for v in (0, 1, 2, 2.0001, 4, 4.5):
            h.observe(v)
        assert h.counts == [2, 1, 2, 1]  # le=1, le=2, le=4, +Inf


class TestRegistry:
    def test_get_or_create_identity(self):
        r = MetricsRegistry()
        a = r.counter("repro_reads", disk="d1")
        b = r.counter("repro_reads", disk="d1")
        assert a is b

    def test_labels_distinguish_series(self):
        r = MetricsRegistry()
        a = r.counter("repro_reads", disk="d1")
        b = r.counter("repro_reads", disk="d2")
        assert a is not b
        a.inc(5)
        assert b.value == 0

    def test_register_adopts_external_instrument(self):
        r = MetricsRegistry()
        c = Counter("repro_io_read_bytes")
        r.register(c)
        c.inc(100)
        assert r.snapshot()["repro_io_read_bytes"] == 100

    def test_rebind_moves_series_without_duplicate(self):
        # The thin-view pattern: a stat holder self-binds with a seq label,
        # then gets rebound with a better one.  The stale key must vanish.
        r = MetricsRegistry()
        c = Counter("repro_apriori_feasible", {"search": "search1"})
        r.register(c)
        c.labels = {"program": "two_matmul"}
        r.register(c)
        snap = r.snapshot()
        assert 'repro_apriori_feasible{program="two_matmul"}' in snap
        assert 'repro_apriori_feasible{search="search1"}' not in snap
        assert len(snap) == 1

    def test_seq_labels_are_unique(self):
        r = MetricsRegistry()
        assert r.seq("pool") == "pool1"
        assert r.seq("pool") == "pool2"
        assert r.seq("disk") == "disk1"

    def test_expose_text_format(self):
        r = MetricsRegistry()
        r.counter("repro_reads", disk="d1").inc(3)
        r.gauge("repro_used").set(2.0)
        text = r.expose_text()
        assert "# TYPE repro_reads counter" in text
        assert 'repro_reads{disk="d1"} 3' in text
        assert "# TYPE repro_used gauge" in text
        assert "repro_used 2\n" in text         # integral floats int-ified
        assert text.endswith("\n")

    def test_snapshot_diff(self):
        r = MetricsRegistry()
        c = r.counter("repro_reads")
        g = r.gauge("repro_used")
        c.inc(10)
        before = r.snapshot()
        c.inc(5)
        delta = r.diff(before)
        assert delta == {"repro_reads": 5}       # zero-delta gauge omitted
        assert g.value == 0


class TestGlobalInstall:
    def test_install_and_use_scoping(self):
        assert metrics.CURRENT is None
        r = metrics.install()
        assert metrics.CURRENT is r
        other = MetricsRegistry()
        with metrics.use(other):
            assert metrics.CURRENT is other
        assert metrics.CURRENT is r
        metrics.uninstall()
        assert metrics.CURRENT is None


class TestThinViews:
    """The engine's stat classes read/write the same instrument objects."""

    def test_iostats_fields_are_instrument_views(self):
        from repro.storage.disk import IOStats
        stats = IOStats()
        stats.read_bytes += 4096
        stats.read_ops += 1
        assert stats.read_bytes == 4096
        r = MetricsRegistry()
        stats.bind(r, disk="d1")
        stats.write_bytes += 100
        snap = r.snapshot()
        assert snap['repro_io_read_bytes{disk="d1"}'] == 4096
        assert snap['repro_io_write_bytes{disk="d1"}'] == 100

    def test_iostats_reset_zeroes_series(self):
        from repro.storage.disk import IOStats
        stats = IOStats()
        stats.read_bytes += 10
        stats.reset()
        assert stats.read_bytes == 0

    def test_pool_stats_registered_when_installed(self):
        from repro.storage.buffer import BufferPool
        r = metrics.install()
        pool = BufferPool(cap_bytes=1 << 20)
        pool.hits += 2
        assert r.snapshot()['repro_pool_hits{pool="pool1"}'] == 2

    def test_iostats_mirror_forwards_named_fields(self):
        from repro.storage.disk import IOStats
        logical = IOStats()
        shard = IOStats()
        shard.mirror = (logical, ("retries",))
        shard.add(read_bytes=64, retries=2)
        assert logical.retries == 2
        assert logical.read_bytes == 0  # only the named fields forward


class TestQuantiles:
    """Histogram quantile extraction (p50/p90/p99 for SLO reporting)."""

    def _loaded(self):
        h = Histogram("repro_lat", buckets=(1, 2, 4, 8))
        for v in [0.5] * 50 + [1.5] * 30 + [3.0] * 15 + [6.0] * 4 + [20.0]:
            h.observe(v)
        return h

    def test_quantile_interpolates_within_bucket(self):
        h = self._loaded()
        assert 0 < h.quantile(0.5) <= 1          # rank 50 in (0, 1]
        assert 1 < h.quantile(0.9) <= 4
        assert 4 < h.quantile(0.99) <= 8

    def test_inf_bucket_clamps_to_largest_finite_bound(self):
        h = self._loaded()
        assert h.quantile(1.0) == 8

    def test_empty_histogram_returns_none(self):
        assert Histogram("repro_e").quantile(0.5) is None

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            self._loaded().quantile(1.5)

    def test_quantiles_dict_keys(self):
        q = self._loaded().quantiles()
        assert set(q) == {"p50", "p90", "p99"}

    def test_registry_quantiles_skip_empty_histograms(self):
        r = MetricsRegistry()
        r.histogram("repro_empty")
        full = r.histogram("repro_full", buckets=(1, 10))
        full.observe(0.5)
        q = r.quantiles()
        assert "repro_full" in q and "repro_empty" not in q

    def test_snapshot_doc_carries_quantiles_member(self):
        r = MetricsRegistry()
        h = r.histogram("repro_lat", buckets=(1, 10), op="x")
        h.observe(0.5)
        doc = r.snapshot_doc()
        assert doc["v"] == metrics.SCHEMA_VERSION
        assert 'repro_lat{op="x"}' in doc["quantiles"]

    @pytest.mark.parametrize("shape", ["log_uniform", "pinned", "bimodal"])
    def test_service_latency_estimates_within_a_bucket_ratio(self, shape):
        """The service's job-latency buckets are log-linear, four per
        octave, so p50/p90/p99 read within 2^(1/4) - 1 of the exact
        percentile anywhere from 1 ms to 30 s."""
        import numpy as np
        from repro.service import ServiceStats
        rng = np.random.default_rng(7)
        lo, hi = np.log(1e-3), np.log(30.0)
        if shape == "log_uniform":
            logs = rng.uniform(lo, hi, 5000)
        elif shape == "pinned":  # small jobs clustered near 9 ms
            logs = rng.normal(np.log(9e-3), 0.25, 5000)
        else:  # fast jobs plus a slow tail
            logs = np.concatenate([rng.normal(np.log(5e-3), 0.3, 4600),
                                   rng.normal(np.log(3.0), 0.5, 400)])
        latencies = np.exp(np.clip(logs, lo, hi))
        h = Histogram("repro_lat", buckets=ServiceStats._LATENCY_BUCKETS)
        for v in latencies:
            h.observe(float(v))
        bound = 2 ** 0.25 - 1
        for q in (0.5, 0.9, 0.99):
            exact = float(np.percentile(latencies, 100 * q))
            assert abs(h.quantile(q) - exact) <= bound * exact, (q, exact)
