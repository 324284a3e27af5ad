"""Network link tests."""

import pytest

from repro.cluster import GBPS, Link, Nic, client_link
from repro.sim import Environment


def test_transfer_time():
    env = Environment()
    link = Link(env, 100.0)
    assert link.transfer_time(50) == pytest.approx(0.5)


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        Link(Environment(), 0)


def test_negative_transfer_rejected():
    env = Environment()
    link = Link(env, 10.0)

    def proc():
        yield env.process(link.transfer(-1))

    with pytest.raises(ValueError):
        env.process(proc())
        env.run()


def test_transfers_serialize():
    env = Environment()
    link = Link(env, 100.0)
    done = []

    def job(name):
        yield env.process(link.transfer(100))
        done.append((env.now, name))

    env.process(job("a"))
    env.process(job("b"))
    env.run()
    assert done == [(1.0, "a"), (2.0, "b")]
    assert link.bytes_transferred == 200


def test_client_link_bandwidth():
    env = Environment()
    link = client_link(env, gbps=1.0)
    # 1 Gbps = 125 MiB/s here; a 125 MiB transfer takes 1 s.
    assert link.transfer_time(125 * (1 << 20)) == pytest.approx(1.0)
    fast = client_link(env, gbps=4.0)
    assert fast.transfer_time(125 * (1 << 20)) == pytest.approx(0.25)


def test_nic_is_fast():
    env = Environment()
    nic = Nic(env)
    # 1 GiB through a 50 Gbps NIC: well under a second.
    assert nic.transfer_time(1 << 30) < 0.2
    assert nic.bandwidth == 50 * GBPS


# ----------------------------------------------------------------------
# Partial-byte accounting under interruption (fault plans kill transfers)
# ----------------------------------------------------------------------
def test_interrupted_transfer_accounts_partial_bytes():
    from repro.sim import Interrupted

    env = Environment()
    link = Link(env, 100.0)  # 100 B/s -> a 100 B transfer takes 1 s
    tproc = env.process(link.transfer(100))

    def killer():
        yield env.timeout(0.25)
        tproc.interrupt("test")

    env.process(killer())
    env.run()
    assert isinstance(tproc.value, Interrupted)
    # 25% of the service time elapsed -> 25 bytes on the counter.
    assert link.bytes_transferred == 25


def test_completed_transfer_still_counts_once():
    env = Environment()
    link = Link(env, 100.0)

    def xfer():
        yield env.process(link.transfer(100))

    env.run(env.process(xfer()))
    assert link.bytes_transferred == 100


# ----------------------------------------------------------------------
# client_link forwards observer wiring
# ----------------------------------------------------------------------
def test_client_link_forwards_obs_kind_and_run():
    from repro.obs import Observer

    env = Environment()
    obs = Observer()
    link = client_link(env, gbps=2.0, obs=obs, run="r1")

    def xfer():
        yield env.process(link.transfer(1 << 20))

    env.run(env.process(xfer()))
    names = {key for key, _ in obs.metrics}
    assert any(n.startswith("client.queue_wait") for n in names)
    assert any("r1.client-2.0gbps" in n for n in names)


# ----------------------------------------------------------------------
# Fabric: routing and gather on flat vs tiered configs
# ----------------------------------------------------------------------
def _fabrics():
    from repro.cluster import ClusterConfig, Fabric

    flat = Fabric(Environment(), ClusterConfig(n_nodes=16))
    env = Environment()
    tiered = Fabric(env, ClusterConfig(
        n_nodes=16, n_racks=4, nodes_per_rack=4,
        tor_gbps=10.0, oversubscription=2.0))
    return flat, tiered, env


def test_flat_fabric_routes_to_destination_nic_only():
    flat, _, _ = _fabrics()
    assert not flat.tiered
    assert flat.agg is None and flat.tors == []
    assert flat.route(3) == [flat.nics[3]]
    assert flat.route(3, src_node=9) == [flat.nics[3]]
    assert set(flat.links) == {f"nic-{n}" for n in range(16)}


def test_tiered_route_chains():
    _, fabric, _ = _fabrics()
    assert fabric.tiered
    # No source: destination NIC only (client ingress).
    assert fabric.route(5) == [fabric.nics[5]]
    # Same node: no network at all beyond the local NIC.
    assert fabric.route(5, src_node=5) == [fabric.nics[5]]
    # Intra-rack (nodes 4 and 5 share rack 1): both NICs, no switches.
    assert fabric.route(5, src_node=4) == [fabric.nics[4], fabric.nics[5]]
    # Cross-rack (node 0 in rack 0 -> node 5 in rack 1): full chain.
    assert fabric.route(5, src_node=0) == [
        fabric.nics[0], fabric.tors[0], fabric.agg,
        fabric.tors[1], fabric.nics[5]]


def test_tiered_fabric_link_registry():
    _, fabric, _ = _fabrics()
    assert fabric.links["tor-2"] is fabric.tors[2]
    assert fabric.links["agg"] is fabric.agg
    assert fabric.links["nic-7"] is fabric.nics[7]


def test_oversubscription_derives_agg_bandwidth():
    from repro.cluster import ClusterConfig

    config = ClusterConfig(n_nodes=16, n_racks=4, tor_gbps=10.0,
                           oversubscription=2.0)
    # 4 racks x 10 Gbps / 2:1 = 20 Gbps of aggregation capacity.
    assert config.agg_bandwidth == pytest.approx(20 * GBPS)


def test_cross_rack_transfer_charges_the_whole_chain():
    _, fabric, env = _fabrics()
    nbytes = 1 << 20

    def xfer():
        yield env.process(fabric.transfer(nbytes, 5, src_node=0))

    env.run(env.process(xfer()))
    for link in (fabric.nics[0], fabric.tors[0], fabric.agg,
                 fabric.tors[1], fabric.nics[5]):
        assert link.bytes_transferred == nbytes
    assert fabric.nics[1].bytes_transferred == 0
    assert fabric.tors[2].bytes_transferred == 0


def test_gather_skips_switches_for_local_sources():
    _, fabric, env = _fabrics()
    nbytes = 1 << 20
    # Helpers on nodes 4 (same rack as dst 5) and 8 (rack 2).
    sources = [(4, nbytes), (8, nbytes), (5, nbytes)]

    def proc():
        yield env.process(fabric.gather(5, 3 * nbytes, sources))

    env.run(env.process(proc()))
    # dst NIC serialises the combined payload (and nothing upstream of
    # the src==dst leg, which is skipped).
    assert fabric.nics[5].bytes_transferred == 3 * nbytes
    # Intra-rack leg: src NIC only.
    assert fabric.nics[4].bytes_transferred == nbytes
    assert fabric.tors[1].bytes_transferred == nbytes  # dst-rack ToR ingress
    # Cross-rack leg: src NIC, src ToR, agg, dst ToR.
    assert fabric.nics[8].bytes_transferred == nbytes
    assert fabric.tors[2].bytes_transferred == nbytes
    assert fabric.agg.bytes_transferred == nbytes


def test_gather_without_sources_matches_flat_model():
    flat, _, _ = _fabrics()
    env = flat.env
    nbytes = 4 << 20

    def proc():
        yield env.process(flat.gather(2, nbytes, [(0, nbytes)]))
        yield env.process(flat.gather(2, nbytes))

    env.run(env.process(proc()))
    # Flat fabric: source legs are ignored entirely either way.
    assert flat.nics[2].bytes_transferred == 2 * nbytes
    assert flat.nics[0].bytes_transferred == 0


def test_slow_agg_backlogs_cross_rack_flows():
    """With the agg link degraded, cross-rack gathers take longer than
    intra-rack ones moving the same bytes."""
    _, fabric, env = _fabrics()
    nbytes = 64 << 20
    times = {}

    def timed(name, dst, sources):
        t0 = env.now
        yield env.process(fabric.gather(dst, nbytes, sources))
        times[name] = env.now - t0

    fabric.agg.speed_factor = 8.0

    def driver():
        yield env.process(timed("intra", 5, [(4, nbytes)]))
        yield env.process(timed("cross", 5, [(0, nbytes)]))

    env.run(env.process(driver()))
    assert times["cross"] > 2 * times["intra"]
