"""Open-loop load generator and the BENCH_serve.json schema gate."""

import asyncio

import pytest

from repro.serve import (
    EstimationServer,
    ServeRequest,
    ServerConfig,
    run_load,
    validate_bench_report,
)


def _templates():
    return [
        ServeRequest("roads", "rivers", level=4),
        ServeRequest("roads", "parks", level=4),
    ]


class TestRunLoad:
    def test_open_loop_accounts_for_every_request(self, catalog):
        server = EstimationServer(catalog, ServerConfig(max_delay_s=0.001))

        async def go():
            async with server:
                return await run_load(
                    server, _templates(), rate_qps=100.0, duration_s=0.2
                )

        report = asyncio.run(go())
        assert report.sent == 20
        assert report.ok + report.shed + report.timeouts + report.errors == 20
        assert report.errors == 0
        assert report.ok > 0
        assert sum(report.rungs.values()) == report.ok

    def test_latency_percentiles_are_monotone(self, catalog):
        server = EstimationServer(catalog, ServerConfig(max_delay_s=0.001))

        async def go():
            async with server:
                return await run_load(
                    server, _templates(), rate_qps=100.0, duration_s=0.1
                )

        report = asyncio.run(go())
        p50, p95, p99 = (report.percentile_ms(q) for q in (50, 95, 99))
        assert 0.0 <= p50 <= p95 <= p99

    def test_overload_produces_typed_sheds_not_hangs(self, catalog):
        # A two-deep queue at 200 q/s with a disabled cache (1-byte
        # budget forces a fresh build per request): most requests must be
        # refused, and refusals are typed, immediate, counted by reason.
        server = EstimationServer(
            catalog, ServerConfig(max_depth=2, cache_bytes=1)
        )

        async def go():
            async with server:
                return await run_load(
                    server,
                    [ServeRequest("roads", "rivers", level=9)],
                    rate_qps=2000.0,
                    duration_s=0.1,
                )

        report = asyncio.run(go())
        assert report.shed > 0
        assert sum(report.shed_reasons.values()) == report.shed
        assert set(report.shed_reasons) <= {"queue-full", "shed", "quota"}

    def test_bad_parameters_rejected(self, catalog):
        server = EstimationServer(catalog)

        async def go():
            with pytest.raises(ValueError):
                await run_load(server, [], rate_qps=10, duration_s=0.1)
            with pytest.raises(ValueError):
                await run_load(server, _templates(), rate_qps=0, duration_s=0.1)
            await server.aclose()

        asyncio.run(go())

    def test_snapshot_is_a_valid_regime_entry(self, catalog):
        server = EstimationServer(catalog, ServerConfig(max_delay_s=0.001))

        async def go():
            async with server:
                return await run_load(
                    server, _templates(), rate_qps=50.0, duration_s=0.1
                )

        entry = asyncio.run(go()).snapshot()
        payload = {
            "bench": "serve",
            "regimes": {
                "healthy": entry,
                "overloaded": entry,
                "faulted": {**entry, "injected_faults": 2},
            },
        }
        assert validate_bench_report(payload) == []


class TestSchemaGate:
    def _valid_entry(self):
        return {
            "offered_qps": 50.0,
            "achieved_qps": 48.0,
            "duration_s": 5.0,
            "sent": 250,
            "ok": 240,
            "shed": 10,
            "timeouts": 0,
            "errors": 0,
            "latency_ms": {"p50": 1.0, "p95": 2.0, "p99": 3.0},
            "rungs": {"full": 240},
        }

    def _valid_payload(self):
        return {
            "bench": "serve",
            "regimes": {
                "healthy": self._valid_entry(),
                "overloaded": self._valid_entry(),
                "faulted": {**self._valid_entry(), "injected_faults": 2},
            },
        }

    def test_valid_payload_passes(self):
        assert validate_bench_report(self._valid_payload()) == []

    def test_missing_regime_flagged(self):
        payload = self._valid_payload()
        del payload["regimes"]["overloaded"]
        assert any("overloaded" in p for p in validate_bench_report(payload))

    def test_missing_counter_flagged(self):
        payload = self._valid_payload()
        del payload["regimes"]["healthy"]["shed"]
        assert any("healthy.shed" in p for p in validate_bench_report(payload))

    def test_inverted_percentiles_flagged(self):
        payload = self._valid_payload()
        payload["regimes"]["healthy"]["latency_ms"] = {
            "p50": 9.0, "p95": 2.0, "p99": 3.0,
        }
        assert any("p50 <= p95" in p for p in validate_bench_report(payload))

    def test_missing_injected_faults_flagged(self):
        payload = self._valid_payload()
        del payload["regimes"]["faulted"]["injected_faults"]
        assert any("faulted.injected_faults" in p for p in validate_bench_report(payload))

    @pytest.mark.parametrize("injected", [0, "2", None])
    def test_faulted_regime_must_inject_a_fault(self, injected):
        payload = self._valid_payload()
        payload["regimes"]["faulted"]["injected_faults"] = injected
        assert any("faulted.injected_faults" in p for p in validate_bench_report(payload))

    def test_wrong_bench_name_flagged(self):
        payload = self._valid_payload()
        payload["bench"] = "serving"
        assert any("'serve'" in p for p in validate_bench_report(payload))

    def test_non_dict_report_flagged(self):
        assert validate_bench_report([1, 2, 3])
