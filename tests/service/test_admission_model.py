"""Admission control against a model.

A controller drives ``ArrayService._admit`` / ``_release_admission`` from
one client thread per request through a random sequence of arrivals,
releases, cancels, admission timeouts, job deadlines, oversized requests
and a final ``shutdown``.  After every step it waits for the threads to
settle and checks the service against a FIFO model of the budget:

* ``_admitted`` is the sum of the grants held and never exceeds the cap
  (checked at every admission, not only between steps);
* tickets are admitted strictly in arrival order;
* every exit (admit + release, ``AdmissionTimeout``, ``JobCancelled``,
  ``DeadlineExceeded``, ``ServiceClosed``, ``AdmissionRejected``) leaves
  no ticket behind and no grant held;
* the ``queue_depth`` and ``admitted_bytes`` gauges equal the model.
"""

import random
import threading
import time
from collections import deque

import pytest

from repro.cancel import CancelToken
from repro.exceptions import (AdmissionRejected, AdmissionTimeout,
                              DeadlineExceeded, JobCancelled, ServiceClosed)
from repro.service import ArrayService

CAP = 100
SETTLE_S = 10.0
SHORT_S = 0.05  # admission timeout / job deadline of the expiring clients


class _RecordingQueue(deque):
    """The admission queue, recording which client enqueued each ticket
    and the order tickets leave it by admission (``popleft``) — both under
    the service's admission lock."""

    def __init__(self, svc):
        super().__init__()
        self.svc = svc
        self.owner = {}       # ticket -> client id
        self.appended = []    # client ids in arrival order
        self.admitted = []    # client ids in admission order
        self.violations = []

    def append(self, ticket):
        cid = threading.current_thread().cid
        self.owner[ticket] = cid
        self.appended.append(cid)
        super().append(ticket)

    def popleft(self):
        ticket = super().popleft()
        # _admit adds the grant right after popping: it must fit.
        if self.svc._admitted + ticket.need > self.svc.memory_cap_bytes:
            self.violations.append(
                f"admitting {ticket.need} over {self.svc._admitted}")
        self.admitted.append(self.owner[ticket])
        return ticket


class _Client(threading.Thread):
    def __init__(self, cid, svc, need, timeout, token):
        super().__init__(daemon=True, name=f"client-{cid}")
        self.cid, self.svc, self.need = cid, svc, need
        self.timeout, self.token = timeout, token
        self.outcome = None  # "admitted" or the exception type

    def run(self):
        try:
            self.svc._admit(self.need, self.timeout, cancel=self.token)
        except Exception as err:  # recorded, then checked by the controller
            self.outcome = type(err)
        else:
            self.outcome = "admitted"


class _Model:
    """FIFO admission over one budget: only the head may enter, and only
    if it fits in what the holders leave."""

    def __init__(self, cap):
        self.cap = cap
        self.queue = []      # waiting client ids, arrival order
        self.held = {}       # client id -> granted bytes
        self.outcome = {}    # client id -> expected outcome once settled
        self.need = {}
        self.closed = False

    def admitted(self):
        return sum(self.held.values())

    def drain(self):
        while self.queue and not self.closed:
            head = self.queue[0]
            if self.admitted() + self.need[head] > self.cap:
                return
            self.queue.pop(0)
            self.held[head] = self.need[head]
            self.outcome[head] = "admitted"

    def arrive(self, cid, need, expiring=None):
        """``expiring``: the exception a client leaves with if it waits."""
        self.need[cid] = need
        if need > self.cap:
            self.outcome[cid] = AdmissionRejected
            return
        if self.closed:
            self.outcome[cid] = ServiceClosed
            return
        self.queue.append(cid)
        self.outcome[cid] = None  # waiting
        self.drain()
        if expiring is not None and cid in self.queue:
            self.leave(cid, expiring)

    def leave(self, cid, exc):
        self.queue.remove(cid)
        self.outcome[cid] = exc
        self.drain()

    def release(self, cid):
        del self.held[cid]
        self.drain()

    def close(self):
        self.closed = True
        for cid in self.queue:
            self.outcome[cid] = ServiceClosed
        self.queue.clear()


def _settle(svc, q, model, clients):
    """Wait until the service reaches the model's state, then check it."""
    deadline = time.monotonic() + SETTLE_S
    while True:
        with svc._adm:
            assert svc._admitted <= svc.memory_cap_bytes
            state = {
                "queue": [q.owner[t] for t in svc._adm_queue],
                "admitted": svc._admitted,
                "queue_gauge": svc.stats.queue_depth,
                "admitted_gauge": svc.stats.admitted_bytes,
                "outcomes": {c.cid: c.outcome for c in clients},
            }
        want = {
            "queue": list(model.queue),
            "admitted": model.admitted(),
            "queue_gauge": len(model.queue),
            "admitted_gauge": model.admitted(),
            "outcomes": dict(model.outcome),
        }
        if state == want:
            break
        assert time.monotonic() < deadline, (state, want)
        time.sleep(0.001)
    for c in clients:
        if c.outcome is not None:
            c.join(SETTLE_S)
            assert not c.is_alive()
    assert not q.violations, q.violations
    # Strict FIFO: admissions happen in arrival order, skipping only the
    # clients that left the queue without being admitted.
    admitted = set(q.admitted)
    assert q.admitted == [c for c in q.appended if c in admitted]


@pytest.mark.parametrize("seed", range(6))
def test_admission_matches_fifo_model(tmp_path, seed):
    rng = random.Random(seed)
    svc = ArrayService(tmp_path, memory_cap_bytes=CAP, workers=1)
    q = svc._adm_queue = _RecordingQueue(svc)
    model = _Model(CAP)
    clients = []
    tokens = {}

    def arrive(need, timeout=None, deadline=None, expiring=None):
        cid = len(clients)
        token = CancelToken(
            deadline=None if deadline is None else time.monotonic() + deadline)
        tokens[cid] = token
        client = _Client(cid, svc, need, timeout, token)
        clients.append(client)
        model.arrive(cid, need, expiring)
        client.start()

    try:
        for _ in range(40):
            op = rng.random()
            if op < 0.45:
                arrive(rng.choice((10, 20, 30, 40, 60, 100)))
            elif op < 0.70 and model.held:
                cid = rng.choice(sorted(model.held))
                svc._release_admission(model.held[cid])
                model.release(cid)
            elif op < 0.80 and model.queue:
                cid = rng.choice(model.queue)
                tokens[cid].cancel("model cancel")
                model.leave(cid, JobCancelled)
            elif op < 0.87:
                arrive(rng.choice((30, 60, 90)), timeout=SHORT_S,
                       expiring=AdmissionTimeout)
                # A follower queued behind the expiring client is admitted
                # only if the client's exit wakes the queue.
                arrive(rng.choice((10, 20, 30)))
            elif op < 0.94:
                need = rng.choice((30, 60, 90))
                if model.queue or model.admitted() + need > CAP:
                    arrive(need, deadline=SHORT_S, expiring=DeadlineExceeded)
                else:
                    # The token is checked before the fit test, so a
                    # client that would enter at once is not raced
                    # against its own deadline.
                    arrive(need)
                arrive(rng.choice((10, 20, 30)))
            else:
                arrive(CAP + rng.choice((1, 50)))
            _settle(svc, q, model, clients)

        # Shutdown wakes every waiter with ServiceClosed; a request that
        # arrives afterwards is turned away the same way.
        svc.shutdown()
        model.close()
        _settle(svc, q, model, clients)
        arrive(10)
        _settle(svc, q, model, clients)
        # Holders give their grants back after shutdown too.
        for cid in sorted(model.held):
            svc._release_admission(model.held[cid])
            model.release(cid)
        _settle(svc, q, model, clients)
        assert svc._admitted == 0 and not svc._adm_queue
    finally:
        if not svc._closed:
            svc.shutdown()
        for c in clients:
            tokens[c.cid].cancel("test teardown")
            c.join(SETTLE_S)

    outcomes = {c.outcome for c in clients}
    assert "admitted" in outcomes and ServiceClosed in outcomes
