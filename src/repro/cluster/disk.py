"""Disk models and simulated disks.

A :class:`DiskModel` converts an I/O pattern (number of discontinuous
positions + total bytes) into a service time; a :class:`Disk` wraps the
model in a priority FIFO queue (foreground reads ahead of background
recovery, §5.1 "IO Scheduling") and keeps traffic counters for the Table 3
bandwidth accounting.

Calibration
-----------
The HDD constants are an *effective* model of reads inside RCStor bucket
files (track-local seeks, not full-stroke): 190 MB/s sequential with 0.9 ms
per discontinuous I/O.  These reproduce the paper's own Figure 4 anchor
points for Clay(10,4) recovery on one disk — a harmonic-mean bandwidth of
~40 MB/s at 4 MB chunks rising to ~175 MB/s at 256 MB chunks (paper: 40 ->
~170).  The SSD constants (550 MB/s, 80 µs) put W2's absolute numbers in the
few-hundred-MB/s regime of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, PriorityResource

MB = 1 << 20

#: Queue priorities (§5.1): foreground user I/O preempts queued background
#: work such as recovery and data import.
FOREGROUND = 0
BACKGROUND = 1

#: I/O completion statuses returned by :meth:`Disk.read` / :meth:`Disk.write`
#: and :meth:`~repro.cluster.network.Link.transfer`.  Without fault
#: injection every operation returns :data:`IO_OK`; a crashed device
#: returns :data:`IO_FAILED` and a read that surfaces latent corruption
#: returns :data:`IO_CORRUPT` (see :mod:`repro.faults`).
IO_OK = "ok"
IO_FAILED = "failed"
IO_CORRUPT = "corrupt"


@dataclass(frozen=True)
class DiskModel:
    """Service-time model: ``n_ios * positioning + bytes / bandwidth``.

    When the caller supplies the byte ``span`` covered by a scattered read
    pattern, the model also prices the *read-through* strategy — one
    positioning plus streaming the whole span, discarding the gaps (what a
    drive's readahead effectively does for sub-chunk reads packed close
    together) — and charges whichever is cheaper.  This is what makes tiny
    regenerating-code sub-chunk reads cost ~¼ of sequential bandwidth
    rather than one full seek each, matching the paper's Stripe recovery
    numbers while preserving Figure 4's large-chunk behaviour.
    """

    name: str
    seek_time: float          # seconds per discontinuous I/O
    read_bandwidth: float     # bytes/second sequential
    write_bandwidth: float    # bytes/second sequential
    #: Fraction of sequential bandwidth achieved when streaming *through*
    #: a gapped pattern (rotational misses, discarded readahead).
    read_through_efficiency: float = 0.4

    def read_time(self, n_ios: int, nbytes: int, span: int | None = None) -> float:
        """Service time of a (batched) read request."""
        if n_ios < 0 or nbytes < 0:
            raise ValueError("negative I/O")
        scattered = n_ios * self.seek_time + nbytes / self.read_bandwidth
        if span is None or span <= nbytes:
            return scattered
        read_through = (self.seek_time
                        + span / (self.read_bandwidth * self.read_through_efficiency))
        return min(scattered, read_through)

    def write_time(self, n_ios: int, nbytes: int) -> float:
        """Service time of a (batched) write request."""
        if n_ios < 0 or nbytes < 0:
            raise ValueError("negative I/O")
        return n_ios * self.seek_time + nbytes / self.write_bandwidth


#: Calibrated 7200 rpm SAS HDD (see module docstring).
HDD = DiskModel("hdd", seek_time=0.9e-3, read_bandwidth=190 * MB,
                write_bandwidth=185 * MB, read_through_efficiency=0.4)

#: SATA SSD.  The per-I/O cost is the *queue-amortised* command overhead:
#: batched sub-chunk reads run at NCQ depth, so a single discontinuous
#: position costs a few microseconds, not a full device round-trip — this
#: is what keeps W2's regenerating-code reads near device bandwidth
#: (Table 3: 400-570 MB/s for every non-striped scheme).
SSD = DiskModel("ssd", seek_time=1e-6, read_bandwidth=550 * MB,
                write_bandwidth=500 * MB, read_through_efficiency=0.85)


class Disk:
    """A simulated disk: one service queue plus traffic counters.

    With an :class:`~repro.obs.Observer`, the queue records per-lane wait
    histograms (``disk.queue_wait{lane=...}``) and queue-depth / in-use
    gauges labelled by disk id.  ``run`` scopes the gauge labels to one
    measurement — time-weighted gauges cannot be shared across environments
    whose sim clocks each restart at zero.
    """

    def __init__(self, env: Environment, model: DiskModel, disk_id: int,
                 obs=None, run: str | None = None):
        self.env = env
        self.model = model
        self.disk_id = disk_id
        instance = str(disk_id) if run is None else f"{run}.{disk_id}"
        self.queue = PriorityResource(env, capacity=1, obs=obs,
                                      kind="disk", instance=instance)
        self.bytes_read = 0
        self.bytes_written = 0
        self.n_read_ios = 0
        self.n_write_ios = 0
        # Fault state, mutated only by a FaultInjector (repro.faults): a
        # crashed disk fails all I/O, a slowed disk stretches service
        # times, and pending_corrupt reads surface latent corruption.
        self.failed = False
        self.speed_factor = 1.0
        self.pending_corrupt = 0

    def read(self, n_ios: int, nbytes: int, priority: int = FOREGROUND,
             span: int | None = None, req=None, served=None):
        """Process: queue for the disk and perform a (batched) read.

        Returns :data:`IO_OK`, or under fault injection :data:`IO_FAILED`
        (disk dead before/during service — no data delivered, counters
        untouched) / :data:`IO_CORRUPT` (bytes moved but unusable).  The
        request is held as a context manager, so a caller that abandons a
        queued read (hedged-retry timeout, :meth:`Process.interrupt`)
        cancels it rather than leaking the grant.

        ``req`` and ``served`` resume a read that the busy warm-up kernel
        (:mod:`repro.cluster.foreground`) left queued or in service: its
        request, and for a read in service the event ending its service.
        """
        if self.failed:
            return IO_FAILED
        with (self.queue.request(priority) if req is None else req) as req:
            if served is None:
                yield req
                if self.failed:
                    return IO_FAILED
                service = self.model.read_time(n_ios, nbytes, span)
                if self.speed_factor != 1.0:
                    service *= self.speed_factor
                served = self.env.timeout(service)
            yield served
        if self.failed:
            return IO_FAILED
        self.bytes_read += nbytes
        self.n_read_ios += n_ios
        if self.pending_corrupt:
            self.pending_corrupt -= 1
            return IO_CORRUPT
        return IO_OK

    def write(self, n_ios: int, nbytes: int, priority: int = BACKGROUND):
        """Process: queue for the disk and perform a (batched) write.

        Returns :data:`IO_OK` / :data:`IO_FAILED` like :meth:`read`.
        """
        if self.failed:
            return IO_FAILED
        with self.queue.request(priority) as req:
            yield req
            if self.failed:
                return IO_FAILED
            service = self.model.write_time(n_ios, nbytes)
            if self.speed_factor != 1.0:
                service *= self.speed_factor
            yield self.env.timeout(service)
        if self.failed:
            return IO_FAILED
        self.bytes_written += nbytes
        self.n_write_ios += n_ios
        return IO_OK

    @property
    def total_bytes(self) -> int:
        """Total bytes (reads + writes) moved by this device."""
        return self.bytes_read + self.bytes_written
