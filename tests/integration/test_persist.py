"""Persistence round-trips: measurements to JSON(L) and back."""

import json

import pytest

from repro.core.cenfuzz.runner import EndpointFuzzReport
from repro.core.cenprobe.scanner import ProbeReport
from repro.core.centrace.results import CenTraceResult
from repro.persist import (
    PersistError,
    UnitCache,
    from_dict,
    load_campaign,
    save_campaign,
    save_service_run,
    to_dict,
    unit_cache_key,
)


@pytest.fixture(scope="module")
def az_campaign():
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.geo.countries import build_az_world

    return run_campaign(build_az_world(), CampaignConfig(repetitions=2))


class TestTraceRoundTrip:
    def test_blocked_result_round_trips(self, az_campaign):
        original = az_campaign.blocked_remote()[0]
        restored = from_dict(CenTraceResult, to_dict(original))
        assert restored.endpoint_ip == original.endpoint_ip
        assert restored.blocking_type == original.blocking_type
        assert restored.blocking_hop.ip == original.blocking_hop.ip
        assert restored.blocking_hop.asn == original.blocking_hop.asn
        assert restored.location_class == original.location_class
        assert restored.in_path == original.in_path
        assert restored.control_hops == original.control_hops

    def test_quote_delta_round_trips(self, az_campaign):
        original = next(
            r for r in az_campaign.blocked_remote() if r.quote_delta is not None
        )
        restored = from_dict(CenTraceResult, to_dict(original))
        assert restored.quote_delta.tos_changed == original.quote_delta.tos_changed
        assert restored.quote_delta.follows_rfc792 == original.quote_delta.follows_rfc792

    def test_serialization_is_json_safe(self, az_campaign):
        for result in az_campaign.remote_results[:20]:
            json.dumps(to_dict(result))


class TestFuzzRoundTrip:
    def test_report_round_trips(self, az_campaign):
        original = az_campaign.fuzz_reports[0]
        restored = from_dict(EndpointFuzzReport, to_dict(original))
        assert restored.endpoint_ip == original.endpoint_ip
        assert restored.normal_blocked == original.normal_blocked
        assert len(restored.results) == len(original.results)
        assert restored.success_by_strategy() == original.success_by_strategy()


class TestProbeRoundTrip:
    def test_report_round_trips(self, az_campaign):
        original = next(iter(az_campaign.probe_reports.values()))
        restored = from_dict(ProbeReport, to_dict(original))
        assert restored.ip == original.ip
        assert restored.open_ports == original.open_ports
        assert restored.vendor == original.vendor


class TestCampaignSaveLoad:
    def test_save_and_load(self, az_campaign, tmp_path):
        counts = save_campaign(az_campaign, tmp_path / "az")
        assert counts["traces"] == len(az_campaign.remote_results) + len(
            az_campaign.in_country_results
        )
        loaded = load_campaign(tmp_path / "az")
        assert loaded.meta["country"] == "AZ"
        assert len(loaded.remote_results) == len(az_campaign.remote_results)
        assert len(loaded.in_country_results) == len(
            az_campaign.in_country_results
        )
        assert len(loaded.blocked_remote()) == len(az_campaign.blocked_remote())
        assert set(loaded.probe_reports) == set(az_campaign.probe_reports)

    def test_loaded_data_feeds_feature_extraction(self, az_campaign, tmp_path):
        from repro.analysis.features import extract_features

        save_campaign(az_campaign, tmp_path / "az2")
        loaded = load_campaign(tmp_path / "az2")
        by_endpoint = {}
        for result in loaded.blocked_remote():
            by_endpoint.setdefault(result.endpoint_ip, []).append(result)
        endpoint_ip, traces = next(iter(by_endpoint.items()))
        features = extract_features(endpoint_ip, traces)
        assert "CensorResponse" in features.values
        import math

        assert not math.isnan(features.values["CensorResponse"])

    def test_meta_contents(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "az3")
        meta = json.loads((tmp_path / "az3" / "meta.json").read_text())
        assert meta["endpoints"] == 29
        assert len(meta["test_domains"]) == 5
        # Telemetry was off for this campaign: format v3 still records
        # that, and writes no report file.
        assert meta["version"] == 3
        assert meta["has_report"] is False
        assert not (tmp_path / "az3" / "report.json").exists()
        # v3 provenance: enough to rebuild the world that produced this
        # directory (seed/scale arrive via world.spec).
        assert meta["kind"] == "campaign"
        # This fixture's world was hand-built (no WorldSpec): provenance
        # degrades to what the campaign itself knows.
        provenance = meta["provenance"]
        assert provenance["country"] == "AZ"
        assert provenance["seed"] is None
        assert provenance["fault_plan"] is None
        assert provenance["drift_plan"] is None
        assert provenance["epoch"] == 0
        # Environment facts (how it ran, not what it measured).
        assert meta["environment"] == {"workers": None}

    def test_spec_built_world_records_full_provenance(self, tmp_path):
        from repro.experiments.campaign import CampaignConfig, run_campaign
        from repro.geo.countries import build_world

        world = build_world("KZ", seed=11, scale=0.35)
        campaign = run_campaign(
            world,
            CampaignConfig(repetitions=2, max_endpoints=2,
                           fuzz_max_endpoints=1),
        )
        save_campaign(campaign, tmp_path / "kz")
        meta = json.loads((tmp_path / "kz" / "meta.json").read_text())
        assert meta["provenance"] == {
            "country": "KZ",
            "seed": 11,
            "scale": 0.35,
            "fault_plan": None,
            "drift_plan": None,
            "epoch": 0,
        }


class TestRunReportPersistence:
    @pytest.fixture(scope="class")
    def metered_campaign(self):
        from repro.experiments.campaign import CampaignConfig, run_campaign
        from repro.geo.countries import build_az_world
        from repro.telemetry import Telemetry

        return run_campaign(
            build_az_world(),
            CampaignConfig(repetitions=2, max_endpoints=4, fuzz_max_endpoints=2),
            telemetry=Telemetry(),
        )

    def test_report_round_trips(self, metered_campaign, tmp_path):
        counts = save_campaign(metered_campaign, tmp_path / "m")
        assert counts["report"] == 1
        meta = json.loads((tmp_path / "m" / "meta.json").read_text())
        assert meta["has_report"] is True
        loaded = load_campaign(tmp_path / "m")
        assert loaded.run_report is not None
        assert (
            loaded.run_report.identity_json()
            == metered_campaign.run_report.identity_json()
        )
        assert loaded.run_report.wall == metered_campaign.run_report.wall

    def test_old_format_directory_still_loads(self, az_campaign, tmp_path):
        # A version-1 directory: no report.json, no has_report key.
        save_campaign(az_campaign, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 1
        del meta["has_report"]
        meta_path.write_text(json.dumps(meta, indent=2))
        loaded = load_campaign(tmp_path / "old")
        assert loaded.meta["version"] == 1
        assert loaded.run_report is None
        assert len(loaded.remote_results) == len(az_campaign.remote_results)


class TestPersistErrors:
    """The bugfix sweep: every malformed-directory path raises one typed
    PersistError naming the offending file, never a raw traceback."""

    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistError, match="meta.json"):
            load_campaign(tmp_path / "nope")

    def test_corrupt_meta(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "meta.json").write_text('{"version": 3')  # truncated write
        with pytest.raises(PersistError, match="corrupt campaign meta"):
            load_campaign(run)

    def test_non_object_meta(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "meta.json").write_text('[1, 2]')
        with pytest.raises(PersistError, match="expected a JSON object"):
            load_campaign(run)

    def test_corrupt_trace_line_names_path_and_line(
        self, az_campaign, tmp_path
    ):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        lines = traces.read_text().splitlines()
        lines[2] = lines[2][:-5]  # truncate record 3
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match=r"line 3"):
            load_campaign(tmp_path / "run")

    def test_unknown_unit_kind_is_typed_error(self):
        # The kind tag is read back from stored fact payloads, so a
        # corrupt or hand-edited store must report, not traceback.
        from repro.persist import unit_result_from_dict

        with pytest.raises(PersistError, match="unknown work-unit kind"):
            unit_result_from_dict("banner", {})

    @staticmethod
    def rewrite(path, lineno, edit):
        """Replace record ``lineno`` (1-based) of ``path`` by ``edit(record)``."""
        lines = path.read_text().splitlines()
        lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def without(record, key):
        del record[key]
        return record

    def test_missing_required_key_names_file_line_and_key(
        self, az_campaign, tmp_path
    ):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        self.rewrite(traces, 2, lambda r: self.without(r, "test_domain"))
        with pytest.raises(PersistError) as caught:
            load_campaign(tmp_path / "run")
        message = str(caught.value)
        assert str(traces) in message and "line 2" in message
        assert "key 'test_domain' is missing" in message

    def test_array_record_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        fuzz = tmp_path / "run" / "fuzz.jsonl"
        self.rewrite(fuzz, 1, lambda r: [r])
        with pytest.raises(PersistError, match=r"line 1: record is not an object \(got list\)"):
            load_campaign(tmp_path / "run")

    def test_blocking_hop_without_ttl_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        records = [json.loads(line) for line in traces.read_text().splitlines()]
        lineno = next(
            i for i, r in enumerate(records, 1) if r["blocking_hop"] is not None
        )
        self.rewrite(
            traces, lineno, lambda r: {**r, "blocking_hop": {"ip": "10.0.0.1"}}
        )
        with pytest.raises(
            PersistError, match=f"line {lineno}: key 'blocking_hop.ttl' is missing"
        ):
            load_campaign(tmp_path / "run")

    def test_banner_without_ip_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        banners = tmp_path / "run" / "banners.jsonl"
        self.rewrite(banners, 1, lambda r: self.without(r, "ip"))
        with pytest.raises(PersistError, match="banners.jsonl at line 1: key 'ip' is missing"):
            load_campaign(tmp_path / "run")

    def test_non_list_links_rejected(self, tmp_path):
        from repro.persist import load_localization, save_localization

        save_localization([_verdict()], [_evidence()], tmp_path / "loc")
        evidence = tmp_path / "loc" / "evidence.jsonl"
        self.rewrite(evidence, 1, lambda r: {**r, "links": 5})
        with pytest.raises(
            PersistError, match=r"key 'links' is not a list \(got int\)"
        ):
            load_localization(tmp_path / "loc")

    def test_malformed_unit_payload_is_typed_error(self, az_campaign):
        from repro.persist import unit_result_from_dict

        payload = to_dict(az_campaign.fuzz_reports[0])
        payload["results"][0]["test"] = "response"
        with pytest.raises(
            PersistError,
            match=r"fuzz unit payload: key 'results\[0\]\.test' is not an object",
        ):
            unit_result_from_dict("fuzz", payload)

    def test_cli_reports_malformed_record_on_one_line(
        self, az_campaign, tmp_path, capsys
    ):
        from repro.cli import main

        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        self.rewrite(traces, 1, lambda r: self.without(r, "test_domain"))
        code = main([
            "facts", "extract", "--run", str(tmp_path / "run"),
            "--store", str(tmp_path / "facts"),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "key 'test_domain' is missing" in err[0]

    def test_service_run_directory_rejected(self, tmp_path):
        from repro.telemetry import RunReport

        save_service_run(RunReport(), [{"payload": 1}], tmp_path / "svc")
        with pytest.raises(PersistError, match="service-run"):
            load_campaign(tmp_path / "svc")

    def test_service_run_meta_is_kind_tagged(self, tmp_path):
        from repro.telemetry import RunReport

        save_service_run(RunReport(), [{"payload": 1}], tmp_path / "svc")
        meta = json.loads((tmp_path / "svc" / "meta.json").read_text())
        assert meta["kind"] == "service-run"
        assert meta["version"] == 3
        assert meta["counts"]["results"] == 1


class TestVantageStrictness:
    """A typo'd vantage must never silently land in the remote bucket."""

    def test_unknown_vantage_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        lines = traces.read_text().splitlines()
        record = json.loads(lines[0])
        record["vantage"] = "remotee"
        lines[0] = json.dumps(record)
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="unknown vantage 'remotee'"):
            load_campaign(tmp_path / "run")

    def test_missing_vantage_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        lines = traces.read_text().splitlines()
        record = json.loads(lines[1])
        del record["vantage"]
        lines[1] = json.dumps(record)
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match=r"record 2 .* no vantage"):
            load_campaign(tmp_path / "run")

    def test_round_trip_preserves_vantage_split(self, az_campaign, tmp_path):
        """Regression for the sweep: the split must survive a save/load
        cycle exactly, not merely sum to the right total."""
        save_campaign(az_campaign, tmp_path / "run")
        loaded = load_campaign(tmp_path / "run")
        assert [r.endpoint_ip for r in loaded.remote_results] == [
            r.endpoint_ip for r in az_campaign.remote_results
        ]
        assert [r.endpoint_ip for r in loaded.in_country_results] == [
            r.endpoint_ip for r in az_campaign.in_country_results
        ]


class TestUnitCache:
    def entry(self, n=0):
        key = unit_cache_key(["AZ", 7, 0.35, None], ["trace", 2, f"u{n}"])
        return key, {"endpoint_ip": f"10.0.0.{n}", "blocked": True}

    def test_persists_across_instances(self, tmp_path):
        cache = UnitCache(tmp_path)
        key, payload = self.entry()
        cache.put(key, "trace", payload)
        reloaded = UnitCache(tmp_path)
        assert len(reloaded) == 1
        assert key in reloaded
        assert reloaded.get(key) == {"kind": "trace", "payload": payload}

    def test_put_is_idempotent(self, tmp_path):
        cache = UnitCache(tmp_path)
        key, payload = self.entry()
        cache.put(key, "trace", payload)
        cache.put(key, "trace", payload)
        assert len((tmp_path / UnitCache.FILENAME).read_text().splitlines()) == 1

    def test_torn_final_line_tolerated(self, tmp_path):
        from repro.telemetry import Telemetry

        cache = UnitCache(tmp_path)
        for n in range(3):
            key, payload = self.entry(n)
            cache.put(key, "trace", payload)
        path = tmp_path / UnitCache.FILENAME
        path.write_text(path.read_text()[:-20])  # crash mid-append
        telemetry = Telemetry()
        reloaded = UnitCache(tmp_path, telemetry=telemetry)
        assert len(reloaded) == 2
        assert telemetry.counters["store.unit_cache_torn_tail"] == 1

    def test_mid_file_corruption_rejected(self, tmp_path):
        cache = UnitCache(tmp_path)
        for n in range(3):
            key, payload = self.entry(n)
            cache.put(key, "trace", payload)
        path = tmp_path / UnitCache.FILENAME
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="line 1"):
            UnitCache(tmp_path)

    def test_hit_and_miss_counters(self, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        cache = UnitCache(tmp_path, telemetry=telemetry)
        key, payload = self.entry()
        assert cache.get(key) is None
        cache.put(key, "trace", payload)
        assert cache.get(key) is not None
        assert telemetry.counters["store.unit_cache_misses"] == 1
        assert telemetry.counters["store.unit_cache_hits"] == 1
        assert telemetry.counters["store.unit_cache_writes"] == 1

    def test_key_depends_on_each_component(self):
        base = unit_cache_key(["AZ", 7, 0.35, None], ["trace", 2, "u"])
        assert base != unit_cache_key(["AZ", 8, 0.35, None], ["trace", 2, "u"])
        assert base != unit_cache_key(["AZ", 7, 0.35, None], ["trace", 3, "u"])
        assert base != unit_cache_key(
            ["AZ", 7, 0.35, None], ["trace", 2, "u"],
            [{"kind": "firmware", "target": "dev1", "epoch": 1}],
        )
        # Deterministic across processes (no randomized hashing).
        assert base == unit_cache_key(["AZ", 7, 0.35, None], ["trace", 2, "u"])


def _evidence():
    from repro.localize import PathEvidence

    return PathEvidence(
        client_ip="10.9.0.1", endpoint_ip="10.0.1.1",
        domain="variant.example", protocol="https", sport=40123,
        dport=443, outcome="RST", blocked=True,
        links=(("c", "i"), ("i", "a")), epoch=4, source="centrace",
        terminating_ttl=3, blocking_hop_ip="10.0.0.3", endpoint_distance=7,
    )


def _verdict():
    from repro.localize import LocalizationVerdict

    return LocalizationVerdict(
        method="tomography", endpoint_ip="10.0.1.1",
        domain="variant.example", candidate_links=(("i", "a"), ("a", "j")),
        hop_low=1, hop_high=2, confidence=0.75, evidence_count=24,
        detail="blocked=12/24 epochs=5",
    )


class TestLocalizationRoundTrip:
    """Field-by-field round-trips of the localization records through
    the codec and JSON text."""

    @staticmethod
    def round_trip(record):
        return from_dict(type(record), json.loads(json.dumps(to_dict(record))))

    def assert_every_field_round_trips(self, original):
        import dataclasses

        restored = self.round_trip(original)
        for f in dataclasses.fields(original):
            assert getattr(restored, f.name) == getattr(original, f.name), f.name

    def test_every_evidence_field_round_trips(self):
        self.assert_every_field_round_trips(_evidence())

    def test_every_verdict_field_round_trips(self):
        self.assert_every_field_round_trips(_verdict())

    def test_links_restore_as_tuples(self):
        original = _evidence()
        restored = self.round_trip(original)
        assert restored.links == original.links
        assert isinstance(restored.links, tuple)
        assert all(isinstance(link, tuple) for link in restored.links)
        assert restored.link_set() == original.link_set()


class TestSaveLoadLocalization:
    def run_dir(self, tmp_path):
        from repro.persist import save_localization

        evidence, verdict = _evidence(), _verdict()
        xval = {"methods": {"tomography": {"accuracy": 1.0}}}
        counts = save_localization(
            [verdict], [evidence], tmp_path / "loc", xval=xval
        )
        return tmp_path / "loc", counts

    def test_save_then_load(self, tmp_path):
        from repro.persist import load_localization

        directory, counts = self.run_dir(tmp_path)
        assert counts == {"verdicts": 1, "evidence": 1, "xval": 1}
        run = load_localization(directory)
        assert run.meta["kind"] == "localization"
        assert len(run.verdicts) == 1 and len(run.evidence) == 1
        assert run.by_method()["tomography"][0].hop_low == 1
        assert run.xval["methods"]["tomography"]["accuracy"] == 1.0
        assert run.verdicts == [_verdict()]
        assert run.evidence == [_evidence()]

    def test_missing_directory_raises_persist_error(self, tmp_path):
        from repro.persist import load_localization

        with pytest.raises(PersistError, match="meta"):
            load_localization(tmp_path / "nope")

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.persist import load_localization

        directory = tmp_path / "svc"
        directory.mkdir()
        (directory / "meta.json").write_text(
            json.dumps({"version": 3, "kind": "service-run"})
        )
        with pytest.raises(
            PersistError, match="service-run.*repro localize --out"
        ):
            load_localization(directory)

    def test_corrupt_verdicts_raise_persist_error(self, tmp_path):
        from repro.persist import load_localization

        directory, _ = self.run_dir(tmp_path)
        path = directory / "verdicts.jsonl"
        path.write_text(path.read_text()[:-20])
        with pytest.raises(PersistError, match="corrupt"):
            load_localization(directory)
