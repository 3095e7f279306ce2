"""Standalone worker host: run resident-pool slots on another machine.

The paper's MD-GAN deployment puts the discriminators on ``N`` worker hosts
driven by one parameter server; this entrypoint is the worker side of that
split.  Each invocation connects to a server whose resident backend is
listening with the ``tcp`` transport, completes the protocol handshake (and
is assigned a slot index by accept order), then serves the resident protocol
— install / step / pull / push / generate / mirror — until the server closes
the pool:

.. code-block:: console

    $ python -m repro.runtime.worker_host --connect 192.0.2.10:5555 --slots 4

``--slots N`` forks ``N`` serving processes from one command, one per pool
slot this host should own (slots are single-threaded by design — NumPy
parallelism lives inside the step kernels).  The process exits when the
server closes the connection.  Under the default fail-stop discipline a
lost slot poisons the pool and the trainer rebuilds; elastic pools
(``--on-slot-loss degrade|wait`` server-side) instead keep listening, so a
worker host started mid-run joins the pool as a *late joiner* through the
same handshake.  A server that refuses the handshake with a retriable
error (e.g. the pool has not reached a join boundary yet) is re-dialled
with ``--rejoin-backoff`` seconds between attempts until
``--connect-timeout`` expires.
"""

from __future__ import annotations

import argparse
import multiprocessing
import socket
import sys
import time
from typing import Optional, Sequence, Tuple

from .slot import serve_slot
from .transport.tcp import HandshakeRefused, TcpChannel, client_handshake, parse_address

__all__ = ["run_worker", "serve_forever", "main"]

_RETRY_INTERVAL_S = 0.2


def _connect_with_retry(address: Tuple[str, int], timeout: float) -> socket.socket:
    """Connect to ``address``, retrying while nothing is listening yet.

    A refused connection means no listener exists, so retrying cannot
    disturb slot assignment (nothing entered the server's accept queue);
    it lets worker hosts start before the server reaches its listen call —
    the natural order when the server is a training run with setup work.
    """
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConnectionRefusedError(
                f"no server listening on {address[0]}:{address[1]} "
                f"after {timeout:.0f}s"
            )
        try:
            return socket.create_connection(address, timeout=remaining)
        except ConnectionRefusedError:
            time.sleep(min(_RETRY_INTERVAL_S, max(0.0, deadline - time.monotonic())))


def run_worker(
    address: Tuple[str, int],
    connect_timeout: float = 30.0,
    read_timeout: Optional[float] = None,
    quiet: bool = True,
    rejoin_backoff: float = _RETRY_INTERVAL_S,
) -> dict:
    """Connect to ``address``, handshake, and serve one pool slot until close.

    Retries while the connection is refused (server not yet listening) up to
    ``connect_timeout`` seconds; a handshake the server refuses with
    ``retry=True`` (the elastic pool is up but not admitting at this instant)
    is re-dialled after ``rejoin_backoff`` seconds against the same deadline.
    Returns the handshake assignment (``slot_index``/``num_slots``/
    ``session``, plus ``epoch`` for late joiners) after the serving loop
    exits.  Used both by the CLI below and as the spawn target for
    :class:`~repro.runtime.transport.tcp.TcpTransport`'s loopback mode.
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        remaining = max(deadline - time.monotonic(), 0.001)
        sock = _connect_with_retry(address, timeout=remaining)
        channel = TcpChannel(sock, read_timeout=read_timeout)
        try:
            assignment = client_handshake(channel)
            break
        except HandshakeRefused as exc:
            channel.close()
            if not exc.retry or time.monotonic() + rejoin_backoff >= deadline:
                raise
            if not quiet:
                print(
                    f"worker-host: server refused handshake ({exc}); retrying "
                    f"in {rejoin_backoff:.2f}s",
                    file=sys.stderr,
                    flush=True,
                )
            time.sleep(rejoin_backoff)
        except BaseException:
            channel.close()
            raise
    try:
        if not quiet:
            print(
                f"worker-host: serving slot {assignment['slot_index']} of "
                f"{assignment['num_slots']} (session {assignment['session']}) "
                f"for {address[0]}:{address[1]}",
                file=sys.stderr,
                flush=True,
            )
        serve_slot(channel)
    finally:
        channel.close()
    return assignment


def serve_forever(
    address: Tuple[str, int],
    connect_timeout: float = 30.0,
    read_timeout: Optional[float] = None,
    quiet: bool = False,
    rejoin_backoff: float = _RETRY_INTERVAL_S,
) -> int:
    """Serve one pool slot per successive pool until no server reappears.

    Experiment runners (``fig4``/``fig5``/``traffic-check``) build several
    trainers in sequence, each with its own pool; a single-shot worker exits
    when the first pool closes and the next one finds nobody listening.
    This loop reconnects after every clean close and exits 0 once no server
    shows up within ``connect_timeout`` — it serves successive *pools*,
    which is distinct from the fail-stop rule that a lost slot inside one
    pool is never replaced.
    """
    served = 0
    while True:
        try:
            run_worker(
                address,
                connect_timeout=connect_timeout,
                read_timeout=read_timeout,
                quiet=quiet,
                rejoin_backoff=rejoin_backoff,
            )
        except (ConnectionRefusedError, HandshakeRefused):
            if not quiet:
                print(
                    f"worker-host: no server on {address[0]}:{address[1]} "
                    f"within {connect_timeout:.0f}s after serving {served} "
                    f"pool(s); exiting",
                    file=sys.stderr,
                    flush=True,
                )
            return 0 if served else 1
        served += 1


def _serve_forever_process(
    address: Tuple[str, int],
    connect_timeout: float = 30.0,
    quiet: bool = False,
    rejoin_backoff: float = _RETRY_INTERVAL_S,
) -> None:
    """Process target: propagate :func:`serve_forever`'s code as the exitcode."""
    sys.exit(
        serve_forever(
            address,
            connect_timeout=connect_timeout,
            quiet=quiet,
            rejoin_backoff=rejoin_backoff,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entrypoint: ``python -m repro.runtime.worker_host --connect HOST:PORT``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.worker_host",
        description="Serve resident-pool slots for a remote MD-GAN/FL-GAN server.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address the server's tcp transport is listening on",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=1,
        help="number of pool slots to serve from this host (default 1)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for the server to accept (default 30)",
    )
    parser.add_argument(
        "--loop",
        action="store_true",
        help=(
            "keep serving successive pools (multi-run servers like fig5 build "
            "one pool per training run); exits 0 once no server reappears "
            "within --connect-timeout"
        ),
    )
    parser.add_argument(
        "--rejoin-backoff",
        type=float,
        default=_RETRY_INTERVAL_S,
        help=(
            "seconds between handshake re-dials when an elastic server refuses "
            f"with a retriable error (default {_RETRY_INTERVAL_S})"
        ),
    )
    args = parser.parse_args(argv)
    if args.slots < 1:
        parser.error(f"--slots must be >= 1, got {args.slots}")
    if args.rejoin_backoff <= 0:
        parser.error(f"--rejoin-backoff must be > 0, got {args.rejoin_backoff}")
    address = parse_address(args.connect)
    if args.slots == 1:
        if args.loop:
            return serve_forever(
                address,
                connect_timeout=args.connect_timeout,
                rejoin_backoff=args.rejoin_backoff,
            )
        try:
            run_worker(
                address,
                connect_timeout=args.connect_timeout,
                quiet=False,
                rejoin_backoff=args.rejoin_backoff,
            )
        except (ConnectionRefusedError, HandshakeRefused) as exc:
            print(f"worker-host: {exc}", file=sys.stderr, flush=True)
            return 1
        return 0
    ctx = multiprocessing.get_context()
    processes = [
        ctx.Process(
            target=_serve_forever_process if args.loop else run_worker,
            args=(address,),
            kwargs={
                "connect_timeout": args.connect_timeout,
                "quiet": False,
                "rejoin_backoff": args.rejoin_backoff,
            },
        )
        for _ in range(args.slots)
    ]
    for process in processes:
        process.start()
    exit_code = 0
    for process in processes:
        process.join()
        exit_code = exit_code or (process.exitcode or 0)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
