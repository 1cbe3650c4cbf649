"""Communication-cost accounting for the multi-source framework.

The paper reports, per search strategy, the number of bytes moved between
the data center and the data sources (Figs 13/19) and the transmission time
those bytes imply at a constant network bandwidth (Figs 14/20). We count
the serialized payloads of every message with a simple wire model:

- fixed per-message header: 64 bytes;
- one cell ID: 8 bytes; one dataset ID: 8 bytes; one (id, score) result
  row: 16 bytes; scalar parameters: 8 bytes each.

Transmission time = total bytes / ``params.BANDWIDTH_BYTES_PER_S`` (the
paper's stated model), computed by the experiments.
"""
from __future__ import annotations

from dataclasses import dataclass, field

HEADER_BYTES = 64
CELL_BYTES = 8
ID_BYTES = 8
RESULT_ROW_BYTES = 16
SCALAR_BYTES = 8


@dataclass
class Message:
    sender: str
    receiver: str
    kind: str
    n_bytes: int


@dataclass
class CommLog:
    messages: list[Message] = field(default_factory=list)

    def send(self, sender: str, receiver: str, kind: str, payload_bytes: int) -> None:
        self.messages.append(
            Message(sender, receiver, kind, HEADER_BYTES + int(payload_bytes))
        )

    @property
    def total_bytes(self) -> int:
        return sum(m.n_bytes for m in self.messages)

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    def bytes_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for m in self.messages:
            out[m.kind] = out.get(m.kind, 0) + m.n_bytes
        return out
