"""The client library: text in, decoded results out.

Wraps a :class:`~repro.core.engine.WukongSEngine` endpoint with the
client-side responsibilities of §3:

* parse query text into cached stored procedures;
* resolve constant strings to IDs through the string server (one round
  trip per *new* constant — long strings never travel with queries);
* submit one-shot queries / register continuous ones;
* decode result vids back to strings for the application.

Latencies reported to the client optionally include the client<->server
round trip (``include_network``); the paper's tables report server-side
latency, which remains available as ``server_latency_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.client.procedures import ProcedureCache, StoredProcedure
from repro.core.continuous import RegisteredQuery
from repro.core.engine import WukongSEngine
from repro.sim.cost import LatencyMeter

#: Approximate request/response payload sizes (bytes).
_REQUEST_BYTES = 96
_ROW_BYTES = 48


@dataclass
class ClientResult:
    """A decoded one-shot answer."""

    columns: List[str]
    rows: List[Tuple[object, ...]]
    server_latency_ms: float
    client_latency_ms: float
    snapshot: int

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ClientSubscription:
    """A registered continuous query, with incremental result delivery."""

    library: "ClientLibrary"
    procedure: StoredProcedure
    handle: RegisteredQuery
    _delivered: int = 0
    _gaps_delivered: int = 0

    def poll(self) -> List[ClientResult]:
        """Decode executions completed since the last poll."""
        out: List[ClientResult] = []
        new = self.handle.executions[self._delivered:]
        self._delivered = len(self.handle.executions)
        for record in new:
            out.append(self.library._decode(
                self.procedure, record.result, record.meter,
                self.library.engine.coordinator.stable_sn))
        return out

    def poll_gaps(self) -> List:
        """Gap markers noted since the last call (graceful degradation).

        While the cluster is degraded the engine reports each missed
        window close as a :class:`~repro.core.continuous.GapMarker`
        instead of silently skipping it; the marker's ``resolved_ms`` is
        filled in (on the same object) once recovery catches up and the
        late execution is delivered through :meth:`poll`.
        """
        new = self.handle.gaps[self._gaps_delivered:]
        self._gaps_delivered = len(self.handle.gaps)
        return list(new)

    @property
    def name(self) -> str:
        return self.handle.name


class ClientLibrary:
    """One client's connection to the engine."""

    def __init__(self, engine: WukongSEngine, client_id: str = "client0",
                 include_network: bool = True):
        self.engine = engine
        self.client_id = client_id
        self.include_network = include_network
        self.cache = ProcedureCache()
        self._known_constants: set = set()
        self.string_server_roundtrips = 0

    # -- submission ------------------------------------------------------
    def submit(self, text: str,
               home_node: Optional[int] = None) -> ClientResult:
        """Execute a one-shot query and decode its answer."""
        procedure = self.prepare(text)
        if procedure.is_continuous:
            raise ValueError(
                "continuous queries must be registered, not submitted; "
                "use register()")
        record = self.engine.oneshot(procedure.query, home_node=home_node)
        return self._decode(procedure, record.result, record.meter,
                            record.snapshot)

    def register(self, text: str,
                 home_node: Optional[int] = None) -> ClientSubscription:
        """Register a continuous query; poll the subscription for results."""
        procedure = self.prepare(text)
        if not procedure.is_continuous:
            raise ValueError("one-shot queries are submitted, not "
                             "registered; use submit()")
        handle = self.engine.register_continuous(procedure.query,
                                                 home_node=home_node)
        return ClientSubscription(library=self, procedure=procedure,
                                  handle=handle)

    def subscribe(self, procedure: StoredProcedure,
                  handle: RegisteredQuery) -> ClientSubscription:
        """Multiplex a subscription onto an existing registration.

        The serving layer's common-subplan sharing registers *one* backing
        continuous query per distinct normalized AST + window spec and
        fans each window close out to every subscriber: each subscription
        returned here keeps its own delivery cursor over the shared
        handle's executions, so N clients read the same execution records
        independently — one evaluation, N deliveries.
        """
        if not procedure.is_continuous:
            raise ValueError("one-shot procedures cannot subscribe to a "
                             "continuous registration")
        return ClientSubscription(library=self, procedure=procedure,
                                  handle=handle)

    # -- client-side steps --------------------------------------------------
    def prepare(self, text: str) -> StoredProcedure:
        """Parse (cached) and resolve new constants via the string server."""
        procedure = self.cache.get(text)
        fresh = [c for c in procedure.constants()
                 if c not in self._known_constants]
        if fresh:
            # One batched round trip resolves all new strings to IDs.
            self.string_server_roundtrips += 1
            self._known_constants.update(fresh)
        return procedure

    def _decode(self, procedure: StoredProcedure, result, meter,
                snapshot: int) -> ClientResult:
        """Decode vids to strings; aggregate values pass through."""
        strings = self.engine.strings
        group_width = len(procedure.query.group_by)
        decoded: List[Tuple[object, ...]] = []
        for row in result.rows:
            out_row: List[object] = []
            for index, value in enumerate(row):
                if procedure.query.aggregates and index >= group_width:
                    out_row.append(value)  # aggregate: already a value
                elif isinstance(value, int) and value > 0:
                    out_row.append(strings.entity_name(value))
                else:
                    out_row.append(None)
            decoded.append(tuple(out_row))
        client_meter = LatencyMeter()
        client_meter.charge_ps(meter.ps)
        if self.include_network:
            payload = _REQUEST_BYTES + _ROW_BYTES * len(result.rows)
            self.engine.cluster.fabric.message(client_meter, payload,
                                               category="client")
        return ClientResult(
            columns=list(result.variables), rows=decoded,
            server_latency_ms=meter.ms,
            client_latency_ms=client_meter.ms, snapshot=snapshot)
