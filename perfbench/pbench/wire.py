"""A small NDJSON client for the serve protocol, and a delta subscriber.

A full ``check`` response of bank@50k with the dense Σ is about 208 KB
on one line, far above asyncio's default 64 KiB ``readline`` limit, so
every connection here opens with :data:`LINE_LIMIT`.

The server rejects request lines over 64 KiB, and a 50k-row ``create``
line is megabytes; tenants are therefore created in-process through
``DetectionService.create_tenant`` and only the traffic under test goes
over the wire.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any

#: StreamReader limit for every benchmark connection (bytes per line).
LINE_LIMIT = 64 * 1024 * 1024


class WireDropped(Exception):
    """The connection closed or broke before a full response line."""


@dataclass
class Reply:
    ok: bool
    result: Any = None
    error: str = ""


def tuples(value: Any) -> Any:
    """JSON arrays back to tuples, recursively (the records' shape)."""
    if isinstance(value, list):
        return tuple(tuples(v) for v in value)
    return value


class WireClient:
    """One request connection: one line out, one line back."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT
        )

    async def request(self, payload: dict[str, Any]) -> Reply:
        """Send *payload*; an error envelope comes back as ``ok=False``.

        Raises :class:`WireDropped` when the connection is lost; the
        client reconnects on the next request.
        """
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        try:
            self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
            await self._writer.drain()
            line = await self._reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError) as exc:
            await self.close()
            raise WireDropped(str(exc)) from exc
        if not line.endswith(b"\n"):
            await self.close()
            raise WireDropped("connection closed mid-response")
        envelope = json.loads(line)
        if envelope.get("ok"):
            return Reply(True, envelope.get("result"))
        return Reply(False, error=f"{envelope.get('kind')}: {envelope.get('error')}")

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


class Subscriber:
    """A connection dedicated to one tenant's delta stream.

    Replays every delta onto the ``subscribe`` baseline as it arrives, so
    ``records`` is the tenant's report as of commit ``seq``;
    :meth:`wait_for` blocks until a given commit has arrived.
    """

    def __init__(self, host: str, port: int, tenant: str):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.seq = 0
        self.records: list[tuple] = []
        self.error: str | None = None
        self._arrived = asyncio.Condition()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task[None] | None = None

    async def start(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT
        )
        request = {"op": "subscribe", "tenant": self.tenant}
        self._writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await self._writer.drain()
        envelope = json.loads(await self._reader.readline())
        if not envelope.get("ok"):
            raise WireDropped(f"subscribe failed: {envelope}")
        self.seq = envelope["result"]["seq"]
        self.records = list(tuples(envelope["result"]["baseline"]))
        self._task = asyncio.create_task(self._consume())

    def _replay(self, delta: dict[str, Any]) -> None:
        """Apply one delta event: removals highest position first, each
        checked against the record it removes, then additions ascending."""
        records = self.records
        for position, record in reversed(delta["removed"]):
            if position >= len(records) or records[position] != tuples(record):
                raise ValueError(
                    f"delta seq={delta['seq']} removes a record that is "
                    f"not at position {position}")
            del records[position]
        for position, record in delta["added"]:
            records.insert(position, tuples(record))

    async def _consume(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self.error = "stream closed by the server"
                    break
                event = json.loads(line)
                if event.get("event") != "delta":
                    self.error = f"stream ended: {event}"
                    break
                if event["seq"] != self.seq + 1:
                    self.error = f"seq {event['seq']} after {self.seq}"
                    break
                async with self._arrived:
                    self._replay(event)
                    self.seq = event["seq"]
                    self._arrived.notify_all()
        except (ConnectionError, ValueError) as exc:
            self.error = f"stream failed: {exc}"
        finally:
            async with self._arrived:
                self._arrived.notify_all()

    async def wait_for(self, seq: int, timeout: float) -> bool:
        """Wait until delta *seq* arrived; ``False`` on timeout or error."""
        async def arrived() -> None:
            async with self._arrived:
                await self._arrived.wait_for(
                    lambda: self.seq >= seq or self.error is not None
                )
        try:
            await asyncio.wait_for(arrived(), timeout)
        except asyncio.TimeoutError:
            return False
        return self.seq >= seq and self.error is None

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
