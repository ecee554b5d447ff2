"""A model check of flow migration over ``FogNode`` and ``MigrationSourceSession``.

Two flows start on piles of their own.  The rules interleave, in any order
hypothesis finds: emitting a flow's events and offering them to its first
pile, in any order and more than once, through the forwarding stubs a
migration leaves; beginning a migration; answering it by the target's own
admission, by a plain reject, or by an accept that reserves nothing;
handing the state off, which the target installs; and returning the ack to
the source.  Piles' queues fill and drain between the steps.

After every step, for each flow:
- it is resident on exactly one pile, or on none while its state is in
  flight between two piles;
- its instances' ``processed_log``s, oldest instance first, read 1..n, so no
  event is processed twice or skipped; every event offered so far is either
  processed or held, by its flow or in the snapshot in flight; and while no
  state is in flight, n is the longest run 1..n of events offered so far.
"""

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from gridfog.errors import FlowNotResident
from gridfog.fognode import (
    FogNode,
    MigrationAck,
    MigrationPolicy,
    MigrationSourceSession,
    PileState,
    on_migration_end,
)
from gridfog.topology import Point2D, fog_id

N_PILES = 4
FLOWS = ("flow-0", "flow-1")
T_UPPER = 100.0
picks = st.integers(0, 2**16)


class _Books:
    """What the model knows of one flow besides the piles' own state."""

    def __init__(self):
        self.emitted = 0
        self.outbox: list[int] = []  # events not yet offered, copies included
        self.offered: set[int] = set()
        self.instances = []  # every instance that has held the flow, oldest first
        self.session: MigrationSourceSession | None = None
        self.step = None  # the session's last step while it runs
        self.ack: MigrationAck | None = None  # on its way to the source

    def waits_for(self) -> str:
        """What moves the flow's migration on next; "begin" when none runs."""
        if self.session is None:
            return "begin"
        if self.ack is not None:
            return "ack"
        return "response" if self.step.kind == "send-start" else "hand-off"

    def in_flight(self) -> bool:
        """The state has left the source and is not installed anywhere yet."""
        return self.waits_for() == "hand-off"


class MigrationModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.hosts = {fog_id(k): FogNode(PileState(fog_id(k), Point2D(float(k), 0.0)),
                                         capacity=2) for k in range(N_PILES)}
        self.books = {flow: _Books() for flow in FLOWS}
        for k, flow in enumerate(FLOWS):
            self.hosts[fog_id(k)].create_flow(flow)

    def _waiting(self, waits_for: str) -> list[str]:
        return [flow for flow, books in self.books.items() if books.waits_for() == waits_for]

    def _pick(self, waits_for: str, pick: int) -> tuple[str, _Books]:
        flows = self._waiting(waits_for)
        flow = flows[pick % len(flows)]
        return flow, self.books[flow]

    def _residents(self, flow: str) -> list[FogNode]:
        """The piles holding ``flow``; each instance seen is entered in the books."""
        residents = [host for host in self.hosts.values() if host.has_flow(flow)]
        instances = self.books[flow].instances
        for host in residents:
            if not any(host.flows[flow] is seen for seen in instances):
                instances.append(host.flows[flow])
        return residents

    def _follow(self, flow: str, step) -> None:
        books = self.books[flow]
        books.step = step
        if step.kind not in ("not-needed", "failed", "done"):
            return
        session, outcome = books.session, step.outcome
        home = outcome.target if step.kind == "done" else session.host.node
        assert [host.node for host in self._residents(flow)] == [home]
        assert outcome.attempts <= len(session.policy.candidates)
        assert session.policy.max_attempts is None or outcome.attempts <= session.policy.max_attempts
        books.session = books.step = None

    @rule(flow=st.sampled_from(FLOWS))
    def emit(self, flow):
        books = self.books[flow]
        books.emitted += 1
        books.outbox.append(books.emitted)

    @precondition(lambda self: any(books.outbox for books in self.books.values()))
    @rule(pick=picks)
    def offer(self, pick):
        """Offer one waiting event at its flow's first pile and follow the stubs."""
        waiting = [(flow, seq) for flow, books in self.books.items() for seq in books.outbox]
        flow, seq = waiting[pick % len(waiting)]
        books = self.books[flow]
        host = self.hosts[fog_id(FLOWS.index(flow))]
        for _ in range(N_PILES):
            try:
                kind, result = host.offer_event(flow, seq)
            except FlowNotResident:
                kind = None
            if kind != "forward":
                break
            host = self.hosts[result]
        else:
            # State on its way back to a pile the flow left earlier finds that
            # pile's stub still pointing on, so the stubs loop until it lands.
            kind = None
        if kind is None:
            assert books.in_flight(), f"{flow} is lost on its way to {host.node}"
            return  # the event waits for the state to land
        assert kind == "processed"  # a resident flow takes its events at once
        books.outbox.remove(seq)
        books.offered.add(seq)

    @precondition(lambda self: any(books.offered for books in self.books.values()))
    @rule(pick=picks)
    def repeat(self, pick):
        """Send an offered event again."""
        offered = [(flow, seq) for flow, books in self.books.items()
                   for seq in sorted(books.offered)]
        flow, seq = offered[pick % len(offered)]
        self.books[flow].outbox.append(seq)

    @rule(pile=st.integers(0, N_PILES - 1), queue_len=st.integers(0, 3))
    def load(self, pile, queue_len):
        self.hosts[fog_id(pile)].pile.queue_len = queue_len

    @precondition(lambda self: self._waiting("begin"))
    @rule(pick=picks, order=st.permutations(range(N_PILES)), size=st.integers(0, N_PILES - 1),
          bound=st.sampled_from([None, 1, 2]),
          latency=st.sampled_from([T_UPPER / 2, T_UPPER, 2 * T_UPPER]))
    def begin(self, pick, order, size, bound, latency):
        flow, books = self._pick("begin", pick)
        [source] = self._residents(flow)
        candidates = tuple(fog_id(k) for k in order if fog_id(k) != source.node)[:size]
        books.session = MigrationSourceSession(
            source, flow, MigrationPolicy(T_UPPER, candidates, bound))
        self._follow(flow, books.session.begin(latency))

    @precondition(lambda self: self._waiting("response"))
    @rule(pick=picks, answer=st.sampled_from(["admission", "reject", "unreserved accept"]))
    def respond(self, pick, answer):
        flow, books = self._pick("response", pick)
        target = self.hosts[books.step.target]
        accept = (target.accept_migration(flow) if answer == "admission"
                  else answer == "unreserved accept")
        self._follow(flow, books.session.on_response(accept))

    @precondition(lambda self: self._waiting("hand-off"))
    @rule(pick=picks)
    def hand_off(self, pick):
        """The state reaches its target, which installs it and acks."""
        flow, books = self._pick("hand-off", pick)
        step = books.step
        on_migration_end(self.hosts[step.target], step.state)
        books.ack = MigrationAck(flow)

    @precondition(lambda self: self._waiting("ack"))
    @rule(pick=picks)
    def ack(self, pick):
        """The target's ack reaches the source."""
        flow, books = self._pick("ack", pick)
        books.ack = None
        self._follow(flow, books.session.on_ack())

    @invariant()
    def a_flow_is_resident_once(self):
        for flow, books in self.books.items():
            residents = self._residents(flow)
            assert len(residents) == (0 if books.in_flight() else 1), (flow, residents)

    @invariant()
    def every_event_is_processed_once_in_order(self):
        for flow, books in self.books.items():
            residents = self._residents(flow)
            processed = [seq for instance in books.instances for seq in instance.processed_log]
            assert processed == list(range(1, len(processed) + 1)), (flow, processed)
            if residents:
                held = set(residents[0].flows[flow].pending)
            else:  # the events the flow holds travel in its snapshot
                held = set(books.step.state.pending)
            assert books.offered <= held.union(processed), (flow, held, processed)
            if not books.in_flight():
                run = 0
                while run + 1 in books.offered:
                    run += 1
                assert residents[0].flows[flow].cursor == len(processed) == run


TestMigrationModel = MigrationModel.TestCase
