"""Tests for the dataset API, transports, and XML configuration."""

import pytest

from repro.errors import (
    BPFormatError,
    ConfigError,
    StorageError,
    TransportError,
    VariableNotFoundError,
)
from repro.io import (
    AggregatingTransport,
    BPDataset,
    PosixTransport,
    StagingTransport,
    make_transport,
    parse_config,
    parse_size,
)
from repro.storage import SimClock, StorageHierarchy, StorageTier


@pytest.fixture
def hierarchy(tmp_path):
    clock = SimClock()
    return StorageHierarchy(
        [
            StorageTier("fast", "dram_tmpfs", 200_000, tmp_path / "fast", clock),
            StorageTier("slow", "lustre", 10**9, tmp_path / "slow", clock),
        ]
    )


class TestBPDataset:
    def test_write_read_roundtrip(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        ds.write("dpot/L2", b"base-bytes", kind="base", level=2, codec="zfp")
        ds.write("dpot/delta1-2", b"delta-bytes", kind="delta", level=1,
                 preferred_tier=1)
        ds.close()

        rd = BPDataset.open("run", hierarchy)
        assert rd.keys() == ["dpot/L2", "dpot/delta1-2"]
        assert rd.read("dpot/L2") == b"base-bytes"
        assert rd.read("dpot/delta1-2") == b"delta-bytes"
        assert rd.inq("dpot/L2").tier == "fast"
        assert rd.inq("dpot/delta1-2").tier == "slow"

    def test_read_charges_only_variable_bytes(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        ds.write("small", b"x" * 10)
        ds.write("large", b"y" * 100_000, preferred_tier=1)
        ds.close()
        rd = BPDataset.open("run", hierarchy)
        before = hierarchy.clock.bytes_moved(op="read")
        rd.read("small")
        moved = hierarchy.clock.bytes_moved(op="read") - before
        assert moved == 10

    def test_capacity_bypass_on_write(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        rec = ds.write("big", b"z" * 500_000)  # larger than the fast tier
        assert rec.tier == "slow"

    def test_nothing_fits(self, tmp_path):
        h = StorageHierarchy([StorageTier("only", "ssd", 64, tmp_path)])
        ds = BPDataset.create("run", h)
        with pytest.raises(StorageError):
            ds.write("big", b"x" * 100_000)

    def test_write_after_close_rejected(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        ds.close()
        with pytest.raises(BPFormatError):
            ds.write("a", b"1")

    def test_write_on_read_handle_rejected(self, hierarchy):
        BPDataset.create("run", hierarchy).close()
        rd = BPDataset.open("run", hierarchy)
        with pytest.raises(BPFormatError):
            rd.write("a", b"1")

    def test_bad_mode(self, hierarchy):
        with pytest.raises(BPFormatError):
            BPDataset("run", hierarchy, mode="x")

    def test_missing_variable(self, hierarchy):
        BPDataset.create("run", hierarchy).close()
        rd = BPDataset.open("run", hierarchy)
        with pytest.raises(VariableNotFoundError):
            rd.read("ghost")

    def test_select_by_kind(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        ds.write("dpot/L2", b"b", kind="base", level=2)
        ds.write("dpot/delta1-2", b"d", kind="delta", level=1)
        ds.close()
        rd = BPDataset.open("run", hierarchy)
        assert [r.key for r in rd.select(kind="base")] == ["dpot/L2"]

    def test_context_manager(self, hierarchy):
        with BPDataset.create("run", hierarchy) as ds:
            ds.write("a", b"1")
        rd = BPDataset.open("run", hierarchy)
        assert rd.read("a") == b"1"

    def test_catalog_attrs_roundtrip(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        ds.catalog.attrs["levels"] = 3
        ds.write("a", b"1")
        ds.close()
        rd = BPDataset.open("run", hierarchy)
        assert rd.catalog.attrs["levels"] == 3

    def test_two_datasets_coexist(self, hierarchy):
        with BPDataset.create("run1", hierarchy) as d1:
            d1.write("a", b"1")
        with BPDataset.create("run2", hierarchy) as d2:
            d2.write("a", b"2")
        assert BPDataset.open("run1", hierarchy).read("a") == b"1"
        assert BPDataset.open("run2", hierarchy).read("a") == b"2"


class TestTransports:
    def test_posix_roundtrip(self, hierarchy):
        tr = PosixTransport(hierarchy.tier("fast"))
        tr.write("f.bin", b"abc")
        assert tr.read("f.bin") == b"abc"
        assert tr.tier.peek_range("f.bin", 1, 2) == b"bc"

    def test_aggregating_validation(self, hierarchy):
        tier = hierarchy.tier("slow")
        with pytest.raises(TransportError):
            AggregatingTransport(tier, writers=0)
        with pytest.raises(TransportError):
            AggregatingTransport(tier, writers=2, aggregators=4)

    def test_aggregating_cheaper_than_posix_for_many_writers(self, tmp_path):
        """Aggregation amortizes per-op latency on high-latency tiers."""
        clock_a = SimClock()
        tier_a = StorageTier("lustre", "lustre", 10**9, tmp_path / "a", clock_a)
        AggregatingTransport(tier_a, writers=128, aggregators=4).write("x", b"d" * 1000)
        clock_p = SimClock()
        tier_p = StorageTier("lustre", "lustre", 10**9, tmp_path / "p", clock_p)
        PosixTransport(tier_p).write("x", b"d" * 1000)
        assert clock_a.elapsed < clock_p.elapsed

    def test_staging_defers_tier_write(self, hierarchy):
        tier = hierarchy.tier("slow")
        tr = StagingTransport(tier)
        tr.write("x.bin", b"staged")
        assert not tier.exists("x.bin")
        assert tr.pending == ["x.bin"]
        with pytest.raises(TransportError):
            tr.read("x.bin")
        drained = tr.drain()
        assert drained == 6
        assert tr.read("x.bin") == b"staged"

    def test_staging_write_charged_at_network_speed(self, hierarchy):
        tier = hierarchy.tier("slow")
        tr = StagingTransport(tier)
        before = tier.clock.elapsed
        tr.write("x.bin", b"s" * 10_000)
        stage_cost = tier.clock.elapsed - before
        assert stage_cost < tier.device.write_seconds(10_000)

    def test_factory(self, hierarchy):
        tier = hierarchy.tier("fast")
        assert make_transport("posix", tier).method == "POSIX"
        assert make_transport("MPI_AGGREGATE", tier, writers=4).method == "MPI_AGGREGATE"
        assert make_transport("staging", tier).method == "STAGING"
        with pytest.raises(TransportError):
            make_transport("carrier-pigeon", tier)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("0B", 0),
            ("123", 123),
            ("1KiB", 1024),
            ("1kb", 1000),
            ("2MiB", 2 << 20),
            ("1.5GiB", int(1.5 * (1 << 30))),
            ("3TB", 3 * 10**12),
        ],
    )
    def test_valid(self, text, expect):
        assert parse_size(text) == expect

    @pytest.mark.parametrize("text", ["", "MiB", "12XB", "-5MiB"])
    def test_invalid(self, text):
        with pytest.raises(ConfigError):
            parse_size(text)


class TestXMLConfig:
    def make_xml(self, tmp_path):
        return f"""
        <canopus-config>
          <storage root="{tmp_path}">
            <tier name="tmpfs" device="dram_tmpfs" capacity="64MiB"/>
            <tier name="lustre" device="lustre" capacity="10GiB"/>
          </storage>
          <transport tier="lustre" method="MPI_AGGREGATE" writers="128" aggregators="4"/>
          <canopus levels="4" codec="sz" tolerance="1e-3" decimation="2" note="hi"/>
        </canopus-config>
        """

    def test_full_parse(self, tmp_path):
        cfg = parse_config(self.make_xml(tmp_path))
        assert cfg.hierarchy.tier_names() == ["tmpfs", "lustre"]
        assert cfg.hierarchy.tier("tmpfs").capacity_bytes == 64 << 20
        assert cfg.transport_for("lustre").method == "MPI_AGGREGATE"
        assert cfg.transport_for("tmpfs").method == "POSIX"  # default
        assert cfg.levels == 4
        assert cfg.codec == "sz"
        assert cfg.tolerance == 1e-3
        assert cfg.extra == {"note": "hi"}

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "config.xml"
        path.write_text(self.make_xml(tmp_path / "store"))
        cfg = parse_config(path)
        assert cfg.levels == 4

    def test_missing_storage(self):
        with pytest.raises(ConfigError):
            parse_config("<canopus-config></canopus-config>")

    def test_wrong_root_tag(self):
        with pytest.raises(ConfigError):
            parse_config("<nope></nope>")

    def test_invalid_xml(self):
        with pytest.raises(ConfigError):
            parse_config("<canopus-config>")

    def test_tier_missing_attrs(self, tmp_path):
        xml = f"""
        <canopus-config>
          <storage root="{tmp_path}"><tier name="a" device="ssd"/></storage>
        </canopus-config>
        """
        with pytest.raises(ConfigError):
            parse_config(xml)

    def test_no_tiers(self, tmp_path):
        xml = f'<canopus-config><storage root="{tmp_path}"></storage></canopus-config>'
        with pytest.raises(ConfigError):
            parse_config(xml)

    def test_transport_for_unknown_tier(self, tmp_path):
        cfg = parse_config(self.make_xml(tmp_path))
        with pytest.raises(ConfigError):
            cfg.transport_for("nvram")

    def test_shared_clock_injection(self, tmp_path):
        clock = SimClock()
        cfg = parse_config(self.make_xml(tmp_path), clock=clock)
        cfg.hierarchy.fastest.write("x", b"abc")
        assert clock.elapsed > 0
