"""Tests for the raw packet/event trace (``repro simulate --trace-csv``)."""

from __future__ import annotations

from repro.des.kernel import Simulator
from repro.net.network import Network, NetworkConfig
from repro.obs.trace import PACKET_TRACE_FIELDS, record_packets, write_packet_csv
from repro.topology.clos import server_name

KIND = PACKET_TRACE_FIELDS.index("kind")
PAYLOAD = PACKET_TRACE_FIELDS.index("payload_bytes")
PACKET_ID = PACKET_TRACE_FIELDS.index("packet_id")


def _run_with_tracer(small_clos, queue_capacity=150_000, flows=1):
    sim = Simulator(seed=77)
    net = Network(
        sim, small_clos, config=NetworkConfig(queue_capacity_bytes=queue_capacity)
    )
    rows = record_packets(net)
    src = net.host(server_name(0, 0, 0))
    dst = net.host(server_name(1, 0, 0))
    for _ in range(flows):
        src.open_flow(dst, 50_000).start()
    sim.run(until=5.0)
    return rows, net


class TestPacketTracer:
    def test_records_every_hop(self, small_clos):
        rows, _ = _run_with_tracer(small_clos)
        assert len(rows) > 0
        # A cross-cluster data packet is delivered on 6 consecutive links.
        first_data = next(row for row in rows if row[PAYLOAD] > 0)
        hops = [
            row for row in rows
            if row[PACKET_ID] == first_data[PACKET_ID] and row[KIND] == "deliver"
        ]
        assert len(hops) == 6
        times = [hop[0] for hop in hops]
        assert times == sorted(times)

    def test_drop_events_recorded_and_counted(self, small_clos):
        rows, net = _run_with_tracer(small_clos, queue_capacity=3_000, flows=6)
        assert net.total_drops > 0  # chained accounting still works
        drops = [row for row in rows if row[KIND] == "drop"]
        assert len(drops) == net.total_drops

    def test_csv_roundtrip(self, small_clos, tmp_path):
        rows, _ = _run_with_tracer(small_clos)
        path = tmp_path / "trace.csv"
        count = write_packet_csv(path, rows)
        assert count == len(rows)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count + 1  # header
        assert lines[0].startswith("time,kind,link_from,link_to")
