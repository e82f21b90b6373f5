"""A shard with no locks: answers every frame ``{"id": ..., "ok": true}``.

``python3 perf/echostub.py SOCKET_PATH`` (with ``src`` on ``PYTHONPATH``)
binds the unix socket, prints ``ready`` and serves until it is terminated.
``svcbench.py`` starts it with ``subprocess`` and waits for it to end.
"""

from __future__ import annotations

import asyncio
import sys

from repro.runtime.transport_socket import encode_frame, read_frame


async def serve(path: str) -> None:
    async def answer(reader, writer) -> None:
        while (frame := await read_frame(reader)) is not None:
            writer.write(encode_frame({"id": frame.get("id"), "ok": True}))
        writer.close()

    server = await asyncio.start_unix_server(answer, path)
    print("ready", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
