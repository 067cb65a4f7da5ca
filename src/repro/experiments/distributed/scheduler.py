"""Node-level fault-tolerant scheduler over ``python -m repro worker`` peers.

This is PR 5's retry/quarantine machinery lifted one level up.  The
process-pool fabric (:mod:`repro.experiments.parallel`) charges *tasks*
with attempts and quarantines poisoned points; this scheduler does the
same for points, and additionally charges **nodes** with strikes:

* every peer gets a reader thread that turns its stdout into events
  (results, task errors, protocol garbage, EOF) and keeps a
  ``last_frame`` liveness clock fed by heartbeats;
* a **dead peer** — EOF, an undecodable frame, or frame silence beyond
  ``heartbeat_timeout`` — forfeits its in-flight point, which is charged
  one ``node.lost`` attempt and reassigned to the front of the queue
  (``GridReport.points_reassigned``); the slot takes a strike and is
  respawned with a bumped generation;
* a slot that reaches ``node_max_strikes`` strikes is **quarantined** —
  no more respawns — so a host that keeps dying stops eating the grid's
  time, exactly as a point that keeps failing stops eating retries;
* a point whose hosts keep dying under it exhausts ``max_retries`` and
  quarantines with kind ``node.lost``; if *every* slot quarantines while
  work remains, the leftovers fail with kind ``node.unavailable``;
* ``policy.task_timeout`` is a per-task clock here (the peer's
  heartbeats make "alive but slow" visible, so a genuine per-task
  deadline is finally possible): a task past its deadline charges a
  ``timeout`` attempt and the peer — possibly wedged — is recycled.

Results are accepted from a peer only for its current in-flight task;
anything from a peer already declared dead is dropped (its point was
reassigned — the disk cache deduplicates the double computation).

The scheduler is persistent: peers survive across :meth:`execute`
batches (the service daemon reuses them request-to-request) until
:meth:`close` sends shutdown frames and reaps the processes.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from ..parallel import FaultPolicy, GridPoint, GridReport, TaskFailure
from . import protocol

#: node strikes (peer losses) before a slot is quarantined.
DEFAULT_NODE_MAX_STRIKES = 2

#: worker heartbeat period, seconds.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: frame silence after which a peer is declared lost, seconds.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0


def _worker_env() -> Dict[str, str]:
    """The child environment: inherit everything (REPRO_CACHE_DIR,
    REPRO_FAULTS, ...) and make sure ``repro`` is importable
    even when the parent runs from a source tree."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    parts = [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class _Peer:
    """One live worker subprocess: pipes, reader thread, liveness clock."""

    def __init__(self, slot: int, generation: int, command: List[str],
                 events: "queue.Queue") -> None:
        self.slot = slot
        self.generation = generation
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_worker_env(),
        )
        self.pid = self.process.pid
        #: monotonic time of the last well-formed frame (any type).
        self.last_frame = time.monotonic()
        #: (task id, GridPoint, dispatch time) or None.
        self.inflight: Optional[tuple] = None
        self.dead = False
        self._reader = threading.Thread(
            target=self._read_loop, args=(events,), daemon=True
        )
        self._reader.start()

    def _read_loop(self, events: "queue.Queue") -> None:
        stream = self.process.stdout
        while True:
            try:
                frame = protocol.read_frame(stream)
            except protocol.FrameError as exc:
                events.put(("garbage", self, str(exc)))
                return
            except Exception as exc:
                events.put(("eof", self, str(exc)))
                return
            if frame is None:
                events.put(("eof", self, "stream closed"))
                return
            self.last_frame = time.monotonic()
            kind = frame.get("type")
            if kind in ("heartbeat", "hello"):
                continue  # liveness only; not worth a queue slot
            events.put(("frame", self, frame))

    def send(self, payload: Dict) -> bool:
        try:
            self.process.stdin.write(protocol.encode_frame(payload))
            self.process.stdin.flush()
            return True
        except Exception:
            return False

    def kill(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except Exception:
                pass
        try:
            self.process.kill()
        except Exception:
            pass
        try:
            self.process.wait(timeout=5)
        except Exception:
            pass


class _Slot:
    """One logical node: survives peer deaths, accumulates accounting."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.peer: Optional[_Peer] = None
        self.generations = 0
        self.strikes = 0
        self.completed = 0
        self.quarantined = False

    def accounting(self) -> Dict:
        return {
            "node": self.index,
            "generations": self.generations,
            "completed": self.completed,
            "strikes": self.strikes,
            "quarantined": self.quarantined,
        }


class DistributedScheduler:
    """Shard grid points over ``nodes`` worker-subprocess slots."""

    def __init__(
        self,
        nodes: int = 2,
        *,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        node_max_strikes: int = DEFAULT_NODE_MAX_STRIKES,
        python: Optional[str] = None,
        progress=None,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be a positive integer, got {nodes}")
        self.nodes = nodes
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.node_max_strikes = node_max_strikes
        self.python = python or sys.executable
        self.progress = progress
        self._events: "queue.Queue" = queue.Queue()
        self._slots = [_Slot(i) for i in range(nodes)]
        self._task_id = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def _emit(self, event: str, **data) -> None:
        if self.progress is None:
            return
        try:
            self.progress(event, **data)
        except Exception:
            pass

    def _spawn(self, slot: _Slot) -> bool:
        command = [
            self.python, "-m", "repro", "worker",
            "--node", str(slot.index),
            "--generation", str(slot.generations),
            "--heartbeat", str(self.heartbeat_interval),
        ]
        try:
            slot.peer = _Peer(slot.index, slot.generations, command, self._events)
        except Exception as exc:
            slot.peer = None
            slot.strikes += 1
            slot.quarantined = slot.strikes >= self.node_max_strikes
            self._emit("node.spawn_failed", node=slot.index, error=str(exc))
            return False
        slot.generations += 1
        self._emit(
            "node.spawn",
            node=slot.index,
            generation=slot.peer.generation,
            pid=slot.peer.pid,
        )
        return True

    def close(self) -> None:
        """Shut every peer down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            peer = slot.peer
            if peer is None or peer.dead:
                continue
            peer.send({"type": "shutdown"})
        deadline = time.monotonic() + 2.0
        for slot in self._slots:
            peer = slot.peer
            if peer is None or peer.dead:
                continue
            try:
                peer.process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except Exception:
                pass
            peer.kill()
            slot.peer = None

    def __enter__(self) -> "DistributedScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the batch driver --------------------------------------------------

    def execute(
        self,
        points: List[GridPoint],
        *,
        policy: FaultPolicy,
        report: GridReport,
        want_metrics: bool = False,
        on_result=None,
        cancel=None,
    ) -> List[tuple]:
        """Run one batch; mirrors ``parallel._execute``'s outcome shape.

        ``on_result(point, stats_dict)`` streams each result as its frame
        arrives; ``cancel`` (checked once per scheduler tick) stops the
        batch early — in-flight and pending points are abandoned, every
        peer is torn down via :meth:`close`, and the outcomes gathered so
        far are returned with ``report.cancelled`` set.  Workers persist
        each result to the shared disk cache before framing it back, so
        even abandoned in-flight points may survive for the next batch.
        """
        if self._closed:
            raise RuntimeError("scheduler already closed")
        pending = deque(points)
        attempts: Dict[GridPoint, int] = {point: 0 for point in points}
        outcomes: List[tuple] = []
        tasks: Dict[int, GridPoint] = {}

        def charge(point: GridPoint, kind: str, detail: str) -> bool:
            """One failed attempt; True when the point is now quarantined."""
            attempts[point] += 1
            if attempts[point] > policy.max_retries:
                report.failed.append(TaskFailure(point, kind, detail, attempts[point]))
                self._emit("point.failed", point=point.name, kind=kind, error=detail)
                return True
            report.retries += 1
            return False

        def lose(slot: _Slot, reason: str, inflight_kind: str = "node.lost") -> None:
            """Declare the slot's peer dead: forfeit, strike, respawn."""
            peer = slot.peer
            if peer is None or peer.dead:
                return
            peer.dead = True
            peer.kill()
            report.nodes_lost += 1
            slot.strikes += 1
            self._emit(
                "node.lost",
                node=slot.index,
                generation=peer.generation,
                reason=reason,
            )
            if peer.inflight is not None:
                task_id, point, _ = peer.inflight
                peer.inflight = None
                tasks.pop(task_id, None)
                if not charge(point, inflight_kind, reason):
                    pending.appendleft(point)
                    report.points_reassigned += 1
                    self._emit("point.reassigned", point=point.name, node=slot.index)
            if slot.strikes >= self.node_max_strikes:
                slot.quarantined = True
                slot.peer = None
                self._emit("node.quarantined", node=slot.index, strikes=slot.strikes)
            else:
                self._spawn(slot)

        def live_slots() -> List[_Slot]:
            return [
                slot for slot in self._slots
                if not slot.quarantined
                and slot.peer is not None
                and not slot.peer.dead
            ]

        # Lazy first spawn (and respawn after earlier losses).
        for slot in self._slots:
            if not slot.quarantined and (slot.peer is None or slot.peer.dead):
                self._spawn(slot)

        tick = max(0.05, min(self.heartbeat_interval, 0.25))
        while pending or tasks:
            if cancel is not None and cancel.is_set():
                # Cooperative stop: abandon pending + in-flight points and
                # tear the node fabric down.  Completed outcomes are kept
                # (and were already persisted worker-side).
                report.cancelled = True
                self._emit(
                    "cancelled",
                    pending=len(pending),
                    inflight=len(tasks),
                    completed=len(outcomes),
                )
                pending.clear()
                tasks.clear()
                self.close()
                break
            alive = live_slots()
            if not alive:
                # Every slot is quarantined: fail whatever is left.
                for point in pending:
                    report.failed.append(
                        TaskFailure(
                            point,
                            "node.unavailable",
                            "all worker nodes quarantined",
                            attempts[point],
                        )
                    )
                pending.clear()
                break

            for slot in alive:
                if not pending:
                    break
                peer = slot.peer
                if peer.inflight is not None:
                    continue
                point = pending.popleft()
                self._task_id += 1
                task_id = self._task_id
                sent = peer.send(
                    {
                        "type": "task",
                        "id": task_id,
                        "point": protocol.point_to_wire(point),
                        "metrics": want_metrics,
                    }
                )
                if not sent:
                    pending.appendleft(point)
                    lose(slot, "task dispatch failed (broken pipe)")
                    continue
                peer.inflight = (task_id, point, time.monotonic())
                tasks[task_id] = point

            try:
                event = self._events.get(timeout=tick)
            except queue.Empty:
                event = None

            if event is not None:
                kind, peer, payload = event
                slot = self._slots[peer.slot]
                if peer.dead or peer is not slot.peer:
                    pass  # stale event from an already-buried generation
                elif kind == "garbage":
                    lose(slot, f"undecodable frame: {payload}")
                elif kind == "eof":
                    code = peer.process.poll()
                    lose(slot, f"peer exited (rc={code}): {payload}")
                elif kind == "frame":
                    frame = payload
                    ftype = frame.get("type")
                    task_id = frame.get("id")
                    current = peer.inflight
                    if current is None or task_id != current[0]:
                        continue  # duplicate or stale id: ignore
                    _, point, _ = current
                    if ftype == "result":
                        peer.inflight = None
                        tasks.pop(task_id, None)
                        slot.completed += 1
                        outcomes.append(
                            (
                                point,
                                frame["stats"],
                                bool(frame.get("simulated")),
                                frame.get("metrics"),
                            )
                        )
                        if on_result is not None:
                            try:
                                on_result(point, frame["stats"])
                            except Exception:
                                pass  # a broken observer must not fail the batch
                        self._emit(
                            "point.done", point=point.name, node=slot.index
                        )
                    elif ftype == "task.error":
                        peer.inflight = None
                        tasks.pop(task_id, None)
                        detail = str(frame.get("error", "task error"))
                        if not charge(point, "error", detail):
                            pending.append(point)

            # Liveness sweep: heartbeat silence and per-task deadlines.
            now = time.monotonic()
            for slot in list(self._slots):
                peer = slot.peer
                if peer is None or peer.dead or slot.quarantined:
                    continue
                silence = now - peer.last_frame
                if silence > self.heartbeat_timeout:
                    lose(slot, f"no frames for {silence:.1f}s")
                    continue
                if peer.inflight is not None and policy.task_timeout:
                    _, _, dispatched = peer.inflight
                    if now - dispatched > policy.task_timeout:
                        lose(
                            slot,
                            f"no result within {policy.task_timeout:g}s",
                            inflight_kind="timeout",
                        )

        report.nodes = [slot.accounting() for slot in self._slots]
        return outcomes
