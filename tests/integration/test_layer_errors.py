"""An error inside a lower layer reaches the process that issued the I/O.

A layer that waits on the layer below runs it inline (``yield from``),
and fan-out children hand their errors to the waiter, so a device whose
service-time model raises fails the application's call with that
error, instead of leaving the caller waiting until the engine reports a
deadlock.  The device channel and the server thread are released on the
way out.
"""

import pytest

from repro.devices.base import DeviceRequest
from repro.devices.ramdisk import RamDisk
from repro.fs.localfs import LocalFileSystem
from repro.middleware.posix import PosixIO
from repro.middleware.tracing import TraceRecorder
from repro.net.topology import StarTopology
from repro.pfs.layout import StripeLayout
from repro.pfs.pvfs import ParallelFileSystem
from repro.pfs.server import IOServer
from repro.util.units import KiB, MiB


class ModelBroke(Exception):
    pass


class BrokenDisk(RamDisk):
    def service_time(self, request: DeviceRequest) -> float:
        raise ModelBroke(f"no model for {request.nbytes} bytes")


def issue_read(engine, mount, nbytes):
    """One application process reading through POSIX; returns it."""
    handle = PosixIO(engine, mount, TraceRecorder(engine)).open("f", pid=0)

    def app(eng):
        yield eng.timeout(0.001)
        result = yield handle.pread(0, nbytes)
        return result
    return engine.spawn(app(engine), name="app")


@pytest.mark.parametrize("n_servers", [1, 2])
def test_pfs_device_error_fails_the_application(engine, n_servers):
    net = StarTopology(engine, bandwidth=100 * MiB, latency_s=0.00001)
    net.add_node("client0")
    servers = []
    for index in range(n_servers):
        net.add_node(f"server{index}")
        servers.append(IOServer(
            engine, BrokenDisk(engine, capacity_bytes=64 * MiB),
            name=f"server{index}"))
    pfs = ParallelFileSystem(engine, servers, net)
    client = pfs.client("client0")
    client.create("f", 1 * MiB, StripeLayout(
        stripe_size=64 * KiB, servers=tuple(range(n_servers))))
    app = issue_read(engine, client, 64 * KiB * n_servers)
    engine.run()  # no DeadlockError
    with pytest.raises(ModelBroke):
        app.result()
    for server in servers:
        assert server.device._resource.in_use == 0
        assert server._threads.in_use == 0


@pytest.mark.parametrize("max_extent", [0, 16 * KiB])
def test_local_device_error_fails_the_application(engine, max_extent):
    device = BrokenDisk(engine, capacity_bytes=64 * MiB)
    fs = LocalFileSystem(engine, device, page_cache=None,
                         max_extent=max_extent)
    fs.create("f", 1 * MiB)
    app = issue_read(engine, fs, 64 * KiB)
    engine.run()  # no DeadlockError
    with pytest.raises(ModelBroke):
        app.result()
    assert device._resource.in_use == 0
