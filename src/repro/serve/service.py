"""The asyncio serving shell around the deterministic core.

Layering: :mod:`.protocol` decodes and validates bytes, :mod:`.state`
owns every state transition, :mod:`.journal` makes transitions durable —
this module only moves frames and enforces the *resource* policies that
keep an online service alive:

* **Backpressure, not buffering.**  Mutating requests pass through one
  bounded ingress queue.  A full queue sheds the request with an
  explicit ``overload`` NACK at the accept edge — the client always
  hears about it (the zero-silent-drop contract), and memory stays
  bounded no matter how many clients pile on.
* **Deadline budgets.**  Each queued request carries its enqueue time; a
  request that aged past the deadline budget when the worker reaches it
  is answered with a ``deadline`` NACK instead of being processed late.
* **Slow-client eviction.**  Frame reads are bounded: a peer that stalls
  mid-frame (slow-loris) or goes silent past the idle window is told
  ``slow-client`` (best effort) and disconnected.
* **Single-writer ordering.**  One worker task applies all mutations, so
  journal order *is* state order — the property recovery replays by.

Reads (``predict``, ``stats``, ``ping``) are answered inline from the
connection handler: the core guarantees they never move durable state,
so they need neither the queue nor the journal.

Probes: ``ping`` is the liveness check (the event loop is turning);
``stats`` carries ``ready`` (recovery finished, not draining) as the
readiness signal.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.events import NULL_BUS, BusLike, ServeEvent
from repro.runner.transport import WallClock

from .journal import Journal, RecoveryReport
from .protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    ack,
    encode_frame,
    nack,
    validate_request,
)
from .state import ServeConfig

#: Name of the file (inside the data directory) advertising the bound
#: port — how the chaos harness and load generator find a server that
#: asked for an ephemeral port.
PORT_FILE = "serve.port"


@dataclass(frozen=True)
class ServeSettings:
    """Shell-level knobs (resource policy); the learner-side knobs live
    in :class:`ServeConfig` and are journaled with the state."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = ephemeral; see PORT_FILE
    data_dir: str = "serve-data"
    queue_depth: int = 256         # bounded ingress queue (backpressure)
    deadline_s: float = 2.0        # per-request processing budget
    frame_timeout_s: float = 5.0   # payload must land this fast (slow-loris)
    idle_timeout_s: float = 60.0   # silent connections are closed after this
    snapshot_every: int = 1000     # journal records between snapshots
    batch_limit: int = 32          # max queued requests drained per sweep
    fsync: bool = False
    max_frame: int = MAX_FRAME_BYTES
    config: ServeConfig = field(default_factory=ServeConfig)


@dataclass
class ServerStats:
    """Shell-side tallies.  Deliberately *outside* the durable state:
    denials, sheds and predictions are pure reads/refusals, so counting
    them durably would desynchronize live state from journal replay."""

    connections: int = 0
    requests: int = 0
    acked: int = 0
    nacked: Dict[str, int] = field(default_factory=dict)
    predictions: int = 0
    shed: int = 0
    evicted_slow: int = 0
    malformed: int = 0
    disconnects: int = 0

    def nack_total(self) -> int:
        return sum(self.nacked.values())


class PrefetchServer:
    """One serving process: recovery, the listener, and the worker."""

    def __init__(self, settings: Optional[ServeSettings] = None, *,
                 obs: BusLike = NULL_BUS, clock: Optional[WallClock] = None) -> None:
        self.settings = settings or ServeSettings()
        self.obs = obs
        self.clock = clock if clock is not None else WallClock()
        self.stats = ServerStats()
        self.state = None  # type: ignore[assignment]  # set by start()
        self.journal: Optional[Journal] = None
        self.recovery: Optional[RecoveryReport] = None
        self.ready = False
        self.draining = False
        self.port: Optional[int] = None
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        settings = self.settings
        self.recovery = Journal.recover(settings.data_dir, settings.config)
        self.state = self.recovery.state
        self.journal = Journal(
            settings.data_dir,
            snapshot_every=settings.snapshot_every,
            fsync=settings.fsync,
        )
        self.journal.open()  # simlint: disable=SL601 -- one-shot startup I/O before the listener accepts; nothing is on the loop yet
        self._emit(
            "recover",
            detail="seq=%d replayed=%d skipped=%d quarantined=%d" % (
                self.state.seq, self.recovery.replayed,
                self.recovery.skipped, self.recovery.quarantined,
            ),
        )
        self._queue = asyncio.Queue(maxsize=settings.queue_depth)
        self._worker_task = asyncio.ensure_future(self._worker())
        self._server = await asyncio.start_server(
            self._handle_connection, settings.host, settings.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        port_file = Path(settings.data_dir) / PORT_FILE
        port_file.write_text("%d\n" % self.port)  # simlint: disable=SL601 -- tiny one-shot port-file write during startup, before serving begins
        self.ready = True

    async def serve_forever(self) -> None:
        assert self._server is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, answer everything queued,
        snapshot, close.  Requests arriving mid-drain get ``shutdown``
        NACKs — refused explicitly, never dropped."""
        self.draining = True
        self.ready = False
        self._emit("drain")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            await self._queue.join()
        if self._worker_task is not None:
            self._worker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker_task
        if self.journal is not None and self.state is not None:
            self.journal.write_snapshot(self.state)
            self._emit("snapshot", detail="final seq=%d" % self.state.seq)
            self.journal.close()

    def _emit(self, action: str, client: str = "", detail: str = "") -> None:
        if self.obs.enabled:
            self.obs.emit(ServeEvent(
                cycle=0, sm_id=-1, client=client, action=action, detail=detail,
            ))

    # ------------------------------------------------------------------
    # The single mutation worker

    async def _worker(self) -> None:
        assert self._queue is not None
        queue = self._queue
        while True:
            # Sweep the backlog: one awaited item plus whatever is already
            # queued behind it, so a busy shard drains in one loop turn
            # instead of one ``apply`` per turn.  Bounded by ``batch_limit``
            # to keep the event loop responsive under sustained load.
            items = [await queue.get()]
            while len(items) < self.settings.batch_limit:
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._process_swept(items)
            finally:
                for _ in items:
                    queue.task_done()

    def _process_swept(self, items: List[tuple]) -> None:
        """Answer one sweep of queued requests in queue order, shedding
        the ones that aged past the deadline."""
        for item in items:
            op, client, request, future, enqueued = item
            if future.cancelled():
                continue
            age = self.clock.now() - enqueued
            if age > self.settings.deadline_s:
                self.stats.shed += 1
                self._emit("shed", client=client,
                           detail="deadline: aged %.3fs in queue" % age)
                future.set_result(nack(
                    "deadline", seq=request.get("seq"),
                    detail="aged %.3fs in queue" % age,
                    retry_after_s=self.settings.deadline_s,
                ))
            elif op == "hello":
                future.set_result(self._process_hello(request))
            else:
                future.set_result(self._process_access(client, request))

    def _process_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.state is not None and self.journal is not None
        client = request["client"]
        result = self.state.admit(client)
        if not result.ok:
            self._emit("deny", client=client, detail=result.reason)
            return nack("busy", seq=request.get("seq"),
                        detail="session table full of active clients")
        if result.created:
            self.journal.record_admit(self.state.seq, client)
            self._maybe_snapshot()
            if result.evicted:
                self._emit("evict_session", client=result.evicted,
                           detail="evicted for %s" % client)
        self._emit("accept", client=client,
                   detail="new" if result.created else "resumed")
        return ack(seq=request.get("seq"), client=client,
                   session="new" if result.created else "resumed")

    def _process_access(self, client: str,
                        request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.state is not None and self.journal is not None
        applied = self.state.apply(
            client, request["warp"], request["pc"], request["addr"],
            request["app"],
        )
        if applied is None:
            return nack("session-expired", seq=request.get("seq"),
                        detail="session was evicted; re-hello to continue")
        self.journal.record_access(
            self.state.seq, client, request["warp"], request["pc"],
            request["addr"], request["app"],
        )
        self._maybe_snapshot()
        if applied.breaker_opened:
            self._emit("breaker_open", client=client,
                       detail="shard %d: %s" % (applied.shard, applied.fault))
        if applied.breaker_closed:
            self._emit("breaker_close", client=client,
                       detail="shard %d" % applied.shard)
        return ack(seq=request.get("seq"), predictions=applied.predictions,
                   degraded=applied.degraded)

    def _maybe_snapshot(self) -> None:
        assert self.state is not None and self.journal is not None
        if self.journal.maybe_snapshot(self.state):
            self._emit("snapshot", detail="seq=%d" % self.state.seq)

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        decoder = FrameDecoder(self.settings.max_frame)
        client: Optional[str] = None
        try:
            while True:
                frame = await self._read_frame(reader, writer, client)
                if frame is None:
                    break
                self.stats.requests += 1
                try:
                    request = validate_request(decoder.feed(frame)[0])
                except FrameError as exc:
                    # The frame parsed as bytes, so framing is intact:
                    # NACK the bad request and keep the connection.
                    self.stats.malformed += 1
                    self._emit("malformed", client=client or "",
                               detail=str(exc))
                    await self._send(writer, nack("malformed", detail=str(exc)))
                    continue
                keep_going, client = await self._dispatch(
                    writer, request, client
                )
                if not keep_going:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            self.stats.disconnects += 1
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_frame(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          client: Optional[str]) -> Optional[bytes]:
        """One bounded frame read; None means the connection is done
        (disconnect, idle eviction, slow-loris eviction, broken framing)."""
        try:
            header = await asyncio.wait_for(
                reader.readexactly(HEADER_BYTES), self.settings.idle_timeout_s
            )
        except asyncio.IncompleteReadError:
            self.stats.disconnects += 1  # clean close or died mid-header
            return None
        except asyncio.TimeoutError:
            await self._evict_slow(writer, client, "idle past %.1fs"
                                   % self.settings.idle_timeout_s)
            return None
        length = int.from_bytes(header, "big")
        if length == 0 or length > self.settings.max_frame:
            self.stats.malformed += 1
            self._emit("malformed", client=client or "",
                       detail="declared frame length %d" % length)
            await self._send(writer, nack(
                "malformed", detail="declared frame length %d is outside "
                "(0, %d]" % (length, self.settings.max_frame)))
            return None  # framing is lost; the connection must die
        try:
            payload = await asyncio.wait_for(
                reader.readexactly(length), self.settings.frame_timeout_s
            )
        except asyncio.IncompleteReadError as exc:
            self.stats.disconnects += 1
            self._emit("malformed", client=client or "",
                       detail="disconnect mid-frame (%d of %d payload bytes)"
                       % (len(exc.partial), length))
            return None  # peer is gone: nothing to NACK at
        except asyncio.TimeoutError:
            await self._evict_slow(
                writer, client,
                "frame stalled past %.1fs" % self.settings.frame_timeout_s)
            return None
        return header + payload

    async def _evict_slow(self, writer: asyncio.StreamWriter,
                          client: Optional[str], detail: str) -> None:
        self.stats.evicted_slow += 1
        self._emit("evict_slow", client=client or "", detail=detail)
        await self._send(writer, nack("slow-client", detail=detail))

    async def _dispatch(self, writer: asyncio.StreamWriter,
                        request: Dict[str, Any],
                        client: Optional[str]) -> Tuple[bool, Optional[str]]:
        """Route one validated request; returns (keep_connection, client)."""
        op = request["op"]
        seq = request.get("seq")
        if op == "ping":
            await self._send(writer, ack(seq=seq, pong=True))
            return True, client
        if op == "bye":
            await self._send(writer, ack(seq=seq, bye=True))
            return False, client
        if op == "stats":
            await self._send(writer, self._stats_response(request))
            return True, client
        if op == "predict":
            await self._send(writer, self._predict_response(request, client))
            return True, client
        if op == "access" and client is None:
            await self._send(writer, nack(
                "protocol", seq=seq, detail="access before hello"))
            return True, client
        # hello / access: mutations go through the bounded queue.
        response = await self._enqueue(op, client or "", request)
        await self._send(writer, response)
        if op == "hello" and response.get("ok"):
            client = request["client"]
        return True, client

    def _stats_response(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.state is not None
        payload: Dict[str, Any] = {
            "ready": self.ready,
            "draining": self.draining,
            "queue": self._queue.qsize() if self._queue else 0,
            "server": {
                "connections": self.stats.connections,
                "requests": self.stats.requests,
                "acked": self.stats.acked,
                "nacked": dict(self.stats.nacked),
                "shed": self.stats.shed,
                "evicted_slow": self.stats.evicted_slow,
                "malformed": self.stats.malformed,
                "predictions": self.stats.predictions,
            },
        }
        payload.update(self.state.stats())
        if request.get("digest"):
            payload["digest"] = self.state.state_digest()
        # No request-seq echo here: the state's own "seq" (from stats())
        # is the meaningful sequence number in a stats response.
        response = ack()
        response.update(payload)
        return response

    def _predict_response(self, request: Dict[str, Any],
                          client: Optional[str]) -> Dict[str, Any]:
        assert self.state is not None
        seq = request.get("seq")
        if client is None:
            return nack("protocol", seq=seq, detail="predict before hello")
        answer = self.state.predict(
            client, request["warp"], request["pc"], request["addr"],
            request["app"],
        )
        if answer is None:
            return nack("session-expired", seq=seq,
                        detail="session was evicted; re-hello to continue")
        self.stats.predictions += 1
        predictions, degraded = answer
        return ack(seq=seq, predictions=predictions, degraded=degraded)

    async def _enqueue(self, op: str, client: str,
                       request: Dict[str, Any]) -> Dict[str, Any]:
        seq = request.get("seq")
        if self.draining:
            return nack("shutdown", seq=seq, detail="service is draining")
        assert self._queue is not None
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        try:
            self._queue.put_nowait(
                (op, client, request, future, self.clock.now())
            )
        except asyncio.QueueFull:
            self.stats.shed += 1
            self._emit("shed", client=client, detail="overload")
            return nack("overload", seq=seq,
                        detail="ingress queue full (%d)"
                        % self.settings.queue_depth,
                        retry_after_s=self.settings.deadline_s / 4)
        return await future

    async def _send(self, writer: asyncio.StreamWriter,
                    response: Dict[str, Any]) -> None:
        if response.get("ok"):
            self.stats.acked += 1
        else:
            reason = response.get("error", "?")
            self.stats.nacked[reason] = self.stats.nacked.get(reason, 0) + 1
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            writer.write(encode_frame(response))
            await writer.drain()


async def _run_until_signalled(server: PrefetchServer) -> None:
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    hooked = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # exotic platform / nested loop: stop via KeyboardInterrupt
    try:
        serve = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        serve.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serve
        await server.stop()
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)


def run_server(settings: ServeSettings, obs: BusLike = NULL_BUS) -> int:
    """Blocking entry point used by ``snake-repro serve``: start, print
    the endpoint, serve until SIGINT/SIGTERM, drain, exit 0."""
    async def main() -> None:
        server = PrefetchServer(settings, obs=obs)
        await server.start()
        print("serving on %s:%d (data dir %s, queue %d, deadline %.1fs)"
              % (settings.host, server.port, settings.data_dir,
                 settings.queue_depth, settings.deadline_s), flush=True)
        if server.recovery is not None and (
            server.recovery.replayed or server.recovery.snapshot_seq
        ):
            print("recovered seq=%d (snapshot seq=%d, %d journal records "
                  "replayed, %d torn fragments quarantined)"
                  % (server.state.seq, server.recovery.snapshot_seq,
                     server.recovery.replayed, server.recovery.quarantined),
                  flush=True)
        await _run_until_signalled(server)

    asyncio.run(main())
    return 0


__all__ = [
    "PORT_FILE",
    "PrefetchServer",
    "ServeSettings",
    "ServerStats",
    "run_server",
]
