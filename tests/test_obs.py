"""The observability control plane: registry, admission, probes, scrape.

Covers the PR-wide invariants of the unified metrics subsystem:

* histogram edge cases — zero samples, a single sample, the overflow
  bucket — and the percentile clamping rules;
* the registry as the single source of truth: get-or-create identity,
  label-filtered totals, deterministic snapshots, Prometheus-style text;
* :class:`~repro.net.channel.ChannelStats` as a registry view that
  transports feed through one recording call per direction;
* deterministic token-bucket and weighted fair-share admission under an
  injected clock;
* the v3 ``stats``/``health`` wire probes, including tenant filtering,
  and the plaintext HTTP scrape endpoint;
* client-side logical vs physical attempt timings in the retry stack;
* protocol compatibility: a v2 client against a v3 server with quotas
  enabled completes lookups unchanged.
"""

import json
import time
import urllib.request

import pytest

from repro.core import VerificationMode, outsource_document
from repro.errors import ServerBusyError
from repro.net import (
    ChannelStats,
    InstrumentedChannel,
    SearchServer,
    connect,
    decode_message,
)
from repro.net.engine import DEFAULT_DOCUMENT, DocumentRegistry
from repro.net.messages import (
    HealthRequest,
    HealthResponse,
    StatsRequest,
    PruneNotice,
    StatsResponse,
)
from repro.net.retry import ResilientChannel, RetryPolicy
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    FairShareAdmission,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    TokenBucket,
    labels_key,
)
from repro.workloads import figure1_document


@pytest.fixture(scope="module")
def outsourced():
    document = figure1_document(clients=4)
    client, tree, _ = outsource_document(document, seed=b"obs-tests")
    return client, tree


# ---------------------------------------------------------------------------
# Histogram edge cases
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_zero_samples(self):
        h = Histogram("empty")
        assert h.count == 0
        assert h.percentile(50) is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None
        assert snap["min"] is None and snap["max"] is None

    def test_single_sample_reports_exact_value(self):
        h = Histogram("one")
        h.observe(0.0123)
        # Quantisation is clamped to the observed [min, max], so a single
        # observation comes back exactly, not as a bucket bound.
        assert h.percentile(50) == 0.0123
        assert h.percentile(99) == 0.0123
        snap = h.snapshot()
        assert snap["min"] == snap["max"] == snap["p50"] == 0.0123
        assert snap["count"] == 1

    def test_overflow_bucket_reports_true_max(self):
        h = Histogram("over", buckets=[0.1, 1.0])
        h.observe(50.0)        # beyond the last bound: overflow bucket
        h.observe(75.0)
        assert h.percentile(99) == 75.0
        assert h.snapshot()["max"] == 75.0

    def test_percentiles_quantise_to_bucket_bounds(self):
        h = Histogram("buckets", buckets=[1.0, 2.0, 4.0, 8.0])
        for value in (0.5, 1.5, 1.6, 3.0):
            h.observe(value)
        # p50 falls in the (1, 2] bucket; its upper bound is the answer.
        assert h.percentile(50) == 2.0
        # p99 is the top sample's bucket bound, clamped to the max seen.
        assert h.percentile(99) == 3.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=[2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("bad", buckets=[])

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 9.9
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_reset(self):
        h = Histogram("r")
        h.observe(1.0)
        h.reset()
        assert h.count == 0 and h.percentile(50) is None


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", document="a")
        assert registry.counter("hits", document="a") is a
        assert registry.counter("hits", document="b") is not a
        assert registry.gauge("depth") is registry.gauge("depth")

    def test_counter_total_filters_by_label_subset(self):
        registry = MetricsRegistry()
        registry.counter("req", document="a", kind="x").inc(3)
        registry.counter("req", document="a", kind="y").inc(4)
        registry.counter("req", document="b", kind="x").inc(5)
        assert registry.counter_total("req") == 12
        assert registry.counter_total("req", document="a") == 7
        assert registry.counter_total("req", document="b", kind="x") == 5
        assert registry.counter_total("req", document="c") == 0

    def test_snapshot_is_deterministic_and_json_friendly(self):
        registry = MetricsRegistry()
        registry.counter("z_last").inc()
        registry.counter("a_first", tenant="t").inc(2)
        registry.gauge("depth").set(3.5)
        registry.histogram("lat").observe(0.01)
        snap = registry.snapshot()
        json.dumps(snap)    # must be serialisable as-is
        names = [entry["name"] for entry in snap["counters"]]
        assert names == sorted(names)
        assert snap["histograms"][0]["count"] == 1

    def test_render_text_prometheus_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", document="d1").inc(2)
        registry.gauge("inflight").set(1)
        registry.histogram("seconds").observe(0.2)
        text = registry.render_text()
        assert 'requests_total{document="d1"} 2' in text
        assert "inflight 1" in text
        assert "seconds_count 1" in text
        assert "seconds_sum" in text
        assert 'quantile="p99"' in text

    def test_labels_key_order_independent(self):
        assert labels_key({"a": "1", "b": "2"}) == labels_key({"b": "2", "a": "1"})

    def test_reset_clears_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.gauge("g").value == 0
        assert registry.histogram("h").count == 0


class TestChannelStatsView:
    def test_each_recording_call_adds_bytes_and_one_message(self):
        stats = ChannelStats()
        stats.record_request(10)
        stats.record_response(4)
        assert (stats.requests, stats.responses) == (1, 1)
        assert stats.total_bytes == 14
        assert stats.round_trips == 1
        assert stats.as_dict()["bytes_to_server"] == 10
        with pytest.raises(AttributeError):
            stats.bytes_to_server = 0

    def test_private_registries_keep_sessions_isolated(self):
        one, two = ChannelStats(), ChannelStats()
        one.record_request(7)
        assert two.bytes_to_server == 0

    def test_shared_registry_exposes_channel_counters(self):
        registry = MetricsRegistry()
        stats = ChannelStats(registry)
        stats.record_request(3)
        assert registry.counter_total("channel_bytes_to_server") == 3

    def test_reset(self):
        stats = ChannelStats()
        stats.record_request(2)
        stats.record_request(2)
        stats.reset()
        assert stats.requests == 0 and stats.total_bytes == 0


# ---------------------------------------------------------------------------
# Admission control under an injected clock
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: clock["now"])
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        hint = bucket.try_acquire()
        assert hint is not None and hint > 0
        clock["now"] += 1.0
        assert bucket.try_acquire() is None

    def test_retry_hint_is_deficit_over_rate(self):
        clock = {"now": 0.0}
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=lambda: clock["now"])
        assert bucket.try_acquire() is None
        hint = bucket.try_acquire()
        assert hint == pytest.approx(0.5)   # one token at 2 tokens/s


class TestFairShareAdmission:
    def _clocked(self, **kwargs):
        clock = {"now": 0.0}
        admission = FairShareAdmission(clock=lambda: clock["now"], **kwargs)
        return clock, admission

    def test_unquotad_tenant_unlimited(self):
        _, admission = self._clocked()
        for _ in range(100):
            assert admission.try_admit("anyone") is None
        assert admission.ledger() == {}

    def test_default_quota_applies_to_unknown_tenants(self):
        _, admission = self._clocked()
        admission.set_default_quota(1.0, burst=2)
        assert admission.try_admit("unknown") is None
        assert admission.try_admit("unknown") is None
        assert admission.try_admit("unknown") is not None

    def test_guaranteed_bucket_then_shed(self):
        clock, admission = self._clocked()
        admission.set_quota("t", 1.0, burst=2)
        assert admission.try_admit("t") is None
        assert admission.try_admit("t") is None
        assert admission.try_admit("t") is not None
        clock["now"] += 1.0
        assert admission.try_admit("t") is None
        ledger = admission.ledger()
        assert ledger["t"]["admitted"] == 3
        assert ledger["t"]["shed"] == 1

    def test_pool_borrowing_respects_weights(self):
        clock, admission = self._clocked()
        admission.set_pool(1.0, burst=10.0)
        # heavy has 3x the weight of light; both exhaust their guaranteed
        # buckets immediately and compete for the shared pool.
        admission.set_quota("heavy", 1.0, burst=1, weight=3.0)
        admission.set_quota("light", 1.0, burst=1, weight=1.0)
        assert admission.try_admit("heavy") is None   # guaranteed
        assert admission.try_admit("light") is None   # guaranteed
        heavy = light = 0
        for _ in range(10):
            if admission.try_admit("heavy") is None:
                heavy += 1
            if admission.try_admit("light") is None:
                light += 1
        assert heavy > light        # 3x weight wins more of the pool
        assert heavy + light <= 10  # never exceeds the pool burst
        ledger = admission.ledger()
        assert ledger["heavy"]["borrowed"] > ledger["light"]["borrowed"]

    def test_borrow_ledger_decays_at_pool_rate(self):
        clock, admission = self._clocked()
        admission.set_pool(2.0, burst=4.0)
        admission.set_quota("t", 1.0, burst=1)
        admission.try_admit("t")            # guaranteed
        admission.try_admit("t")            # borrowed from the pool
        assert admission.ledger()["t"]["borrowed"] > 0
        clock["now"] += 10.0
        assert admission.ledger()["t"]["borrowed"] == 0.0

    def test_clear_quota_restores_unlimited(self):
        _, admission = self._clocked()
        admission.set_quota("t", 1.0, burst=1)
        assert admission.try_admit("t") is None
        assert admission.try_admit("t") is not None
        admission.clear_quota("t")
        for _ in range(10):
            assert admission.try_admit("t") is None


# ---------------------------------------------------------------------------
# Wire probes: stats and health
# ---------------------------------------------------------------------------

class TestWireProbes:
    def test_stats_and_health_messages_round_trip(self):
        stats = decode_message(StatsRequest().encode())
        assert isinstance(stats, StatsRequest)
        response = decode_message(
            StatsResponse({"accounting": {"admitted": 1}}).encode())
        assert isinstance(response, StatsResponse)
        assert response.metrics["accounting"]["admitted"] == 1
        health = decode_message(HealthRequest().encode())
        assert isinstance(health, HealthRequest)
        ok = decode_message(HealthResponse("ok", {"documents": 2}).encode())
        assert isinstance(ok, HealthResponse)
        assert ok.status == "ok" and ok.detail["documents"] == 2

    def test_probes_are_hello_and_admission_exempt(self, outsourced):
        from repro.net.engine import DEFAULT_DOCUMENT, DocumentRegistry
        from repro.obs import FairShareAdmission

        _, tree = outsourced
        registry = DocumentRegistry(
            admission=FairShareAdmission(clock=lambda: 0.0))
        server = SearchServer(tree, registry=registry)
        # A quota that sheds everything (half a token, a frozen clock)
        # must not block probes.
        registry.configure_quota(DEFAULT_DOCUMENT, 1.0, burst=0.5)
        stats = server.handle(StatsRequest())
        assert isinstance(stats, StatsResponse)
        health = server.handle(HealthRequest())
        assert isinstance(health, HealthResponse)
        assert health.status == "ok"
        with pytest.raises(ServerBusyError):
            server.handle(PruneNotice([tree.root_id]))

    def test_client_adapter_probe_methods(self, outsourced):
        client, tree = outsourced
        server = SearchServer(tree)
        adapter, _ = connect(server)
        client.lookup(adapter, "client", verification=VerificationMode.NONE)
        stats = adapter.server_stats()
        accounting = stats["accounting"]
        assert accounting["admitted"] == (accounting["completed"]
                                          + accounting["shed"]
                                          + accounting["failed"]
                                          + accounting["inflight"])
        health = adapter.server_health()
        assert health["status"] == "ok"
        assert health["documents"] == 1

    def test_stats_filtered_to_addressed_tenant(self, outsourced):
        _, tree = outsourced
        server = SearchServer()
        server.add_document("doc-a", tree)
        server.add_document("doc-b", tree)
        server.handle(PruneNotice([tree.root_id]).for_document("doc-a"))
        server.handle(PruneNotice([tree.root_id]).for_document("doc-b"))
        response = server.handle(StatsRequest().for_document("doc-a"))
        documents = set()
        for section in response.metrics["instruments"].values():
            for entry in section:
                document = entry.get("labels", {}).get("document")
                if document is not None:
                    documents.add(document)
        assert "doc-a" in documents
        assert "doc-b" not in documents     # one tenant cannot read another
        assert response.metrics["accounting"]["admitted"] == 2

    def test_stats_includes_quota_ledger_for_tenant(self, outsourced):
        _, tree = outsourced
        server = SearchServer()
        server.add_document("doc-a", tree)
        server.registry.configure_quota("doc-a", 100.0, burst=100)
        server.handle(PruneNotice([tree.root_id]).for_document("doc-a"))
        response = server.handle(StatsRequest().for_document("doc-a"))
        assert response.metrics["quota"]["admitted"] == 1
        assert response.metrics["quota"]["shed"] == 0


# ---------------------------------------------------------------------------
# HTTP scrape endpoint
# ---------------------------------------------------------------------------

class TestMetricsServer:
    def test_scrape_metrics_and_health(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", document="d").inc(3)
        health = {"status": "ok", "documents": 1}
        with MetricsServer(registry, port=0,
                           health=lambda: dict(health)) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as reply:
                body = reply.read().decode("utf-8")
                assert reply.status == 200
                assert "text/plain" in reply.headers["Content-Type"]
            assert 'requests_total{document="d"} 3' in body
            with urllib.request.urlopen(f"{base}/health") as reply:
                assert json.loads(reply.read())["status"] == "ok"
            health["status"] = "draining"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/health")
            assert excinfo.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope")
            assert excinfo.value.code == 404

    @pytest.mark.parametrize("scraped", [False, True])
    def test_stop_is_prompt(self, scraped):
        """stop() wakes the serving loop instead of waiting out a 0.5 s poll."""
        server = MetricsServer(MetricsRegistry(), port=0).start()
        if scraped:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/metrics") as reply:
                assert reply.status == 200
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.2
        server.stop()       # idempotent


# ---------------------------------------------------------------------------
# Client stack: logical vs physical attempt timings
# ---------------------------------------------------------------------------

class TestClientTimings:
    def _policy(self, **overrides):
        settings = dict(max_attempts=6, deadline_s=None, base_backoff_s=0.0,
                        max_backoff_s=0.0, jitter=0.0, seed=0,
                        sleep=lambda _s: None)
        settings.update(overrides)
        return RetryPolicy(**settings)

    def test_clean_request_one_physical_per_logical(self, outsourced):
        _, tree = outsourced
        server = SearchServer(tree)
        channel = ResilientChannel(
            lambda: InstrumentedChannel(server.handle),
            policy=self._policy())
        channel.request(PruneNotice([tree.root_id]))
        physical = channel.metrics.histograms(
            "client_attempt_physical_seconds")[0]
        logical = channel.metrics.histograms(
            "client_request_logical_seconds")[0]
        assert physical.count == 1
        assert logical.count == 1

    def test_busy_retries_add_physical_attempts(self, outsourced):
        from repro.net import FaultPlan, FaultRule, FaultyChannel

        _, tree = outsourced
        server = SearchServer(tree)
        plan = FaultPlan([FaultRule("prune:send", "busy", calls=[1, 2],
                                    retry_after_s=0.0)], seed=0)
        channel = ResilientChannel(
            lambda: FaultyChannel(InstrumentedChannel(server.handle), plan),
            policy=self._policy())
        channel.request(PruneNotice([tree.root_id]))
        physical = channel.metrics.histograms(
            "client_attempt_physical_seconds")[0]
        logical = channel.metrics.histograms(
            "client_request_logical_seconds")[0]
        assert physical.count == 3      # two busy attempts + the success
        assert logical.count == 1       # one successful logical request
        assert channel.busy_waits == 2
        assert channel.metrics.counter_total("client_busy_waits_total") == 2


# ---------------------------------------------------------------------------
# Lookups against a quota-enabled server
# ---------------------------------------------------------------------------

class TestQuotaCompatibility:
    def test_lookup_unchanged_with_quotas_enabled(self, outsourced):
        client, tree = outsourced
        reference = client.lookup(
            tree, "client", verification=VerificationMode.NONE).matches

        server = SearchServer(tree)
        server.registry.configure_quota(DEFAULT_DOCUMENT, 1000.0, burst=1000)
        server.registry.configure_shared_pool(100.0)
        adapter, _ = connect(server)
        outcome = client.lookup(adapter, "client",
                                verification=VerificationMode.FULL)
        assert outcome.matches == reference
        accounting = server.accounting()
        assert accounting["shed"] == 0
        assert accounting["admitted"] == (accounting["completed"]
                                          + accounting["failed"])


# ---------------------------------------------------------------------------
# Registry plumbing through the serving stack
# ---------------------------------------------------------------------------

class TestServingRegistryPlumbing:
    def test_one_registry_owns_all_serving_instruments(self, outsourced):
        client, tree = outsourced
        server = SearchServer(tree)
        adapter, _ = connect(server)
        client.lookup(adapter, "client", verification=VerificationMode.NONE)
        names = {counter.name for counter in server.metrics.counters()}
        assert "server_requests_total" in names
        histogram_names = {h.name for h in server.metrics.histograms()}
        assert "server_request_seconds" in histogram_names
        assert server.registry.metrics is server.metrics

    def test_store_metrics_bound_at_hosting_time(self, outsourced, tmp_path):
        from repro.net import SQLiteShareStore

        client, tree = outsourced
        store = SQLiteShareStore.from_tree(str(tmp_path / "obs.db"), tree)
        server = SearchServer(store)
        adapter, _ = connect(server)
        client.lookup(adapter, "client", verification=VerificationMode.NONE)
        hits = server.metrics.counter_total("store_cache_hits_total",
                                            document=DEFAULT_DOCUMENT)
        misses = server.metrics.counter_total("store_cache_misses_total",
                                              document=DEFAULT_DOCUMENT)
        assert hits + misses > 0
        store.close()
