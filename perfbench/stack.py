"""The stack under test, built only through the repository's public API.

HTTP gateway -> ``ClusterRouter`` -> one shard process (``MappingServer``
-> ``MappingEngine``).  One shard, because the load generator needs the
host's other core.  Every stack starts fresh: no artifact directory, so
Phase 1 (surrogate training) runs inside the shard on the first gradient
request, exactly as it does for a new user.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import platform
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterConfig, ClusterRouter
from repro.core import MindMappingsConfig, TrainingConfig
from repro.engine import EngineConfig, MappingRequest, MappingResponse
from repro.serve.codec import request_to_dict
from repro.serve.http import start_gateway

#: Reduced Phase-1 recipe, fixed so that set-up time is comparable across
#: commits.  The library default (20k samples x 30 epochs) trains for about
#: two minutes over the three algorithms and would swamp every run.
PHASE1_SAMPLES = 2000
PHASE1_EPOCHS = 8


def engine_config() -> EngineConfig:
    """The engine recipe every stack and every in-process check uses."""
    return EngineConfig(
        mm_config=MindMappingsConfig(
            dataset_samples=PHASE1_SAMPLES,
            training=TrainingConfig(epochs=PHASE1_EPOCHS),
        )
    )


def phase1_recipe() -> Dict[str, int]:
    return {"dataset_samples": PHASE1_SAMPLES, "epochs": PHASE1_EPOCHS}


class _NoDelayConnection(http.client.HTTPConnection):
    """``http.client`` sends headers and body in separate writes; without
    ``TCP_NODELAY`` Nagle's algorithm holds the body back for the server's
    delayed ACK, which would add the client's own stall to every request."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class HttpClient:
    """One keep-alive connection to the gateway (one closed-loop client)."""

    def __init__(self, address: str, timeout_s: float = 120.0) -> None:
        host, port = address.replace("http://", "").split(":")
        self._conn = _NoDelayConnection(host, int(port), timeout=timeout_s)

    def map(self, request: MappingRequest) -> Tuple[int, dict]:
        """POST one request; returns (HTTP status, decoded JSON body)."""
        body = json.dumps({"request": request_to_dict(request)})
        self._conn.request(
            "POST", "/v1/map", body=body,
            headers={"Content-Type": "application/json"},
        )
        reply = self._conn.getresponse()
        return reply.status, json.loads(reply.read())

    def close(self) -> None:
        self._conn.close()


def decode_response(status: int, payload: dict) -> MappingResponse:
    """Turn a gateway reply into a response, raising on any error status."""
    if status != 200:
        raise RuntimeError(f"HTTP {status}: {payload.get('error')}")
    return MappingResponse.from_dict(payload["response"])


class Stack:
    """A running router + shard, optionally fronted by the HTTP gateway."""

    def __init__(self, http: bool = True) -> None:
        self.router = ClusterRouter(
            ClusterConfig(num_shards=1, engine=engine_config())
        ).start()
        self.gateway = start_gateway(self.router) if http else None

    @property
    def address(self) -> str:
        if self.gateway is None:
            raise RuntimeError("stack was started without the HTTP gateway")
        return self.gateway.address

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown()
            self.gateway.server_close()
        self.router.shutdown(timeout=60.0)


def launch(http: bool, warmup: Sequence[MappingRequest]) -> Tuple[Stack, float]:
    """Start a stack and serve ``warmup``; returns it with its set-up time.

    Set-up time runs from launch until every warm-up request is answered,
    so it holds process spawn, Phase 1 for the algorithms the warm-up
    touches, and the first-request lazy work (lower bounds, tables).
    """
    started = time.perf_counter()
    stack = Stack(http=http)
    try:
        if http:
            client = HttpClient(stack.address)
            try:
                for request in warmup:
                    decode_response(*client.map(request))
            finally:
                client.close()
        else:
            for request in warmup:
                stack.router.submit(request).result(timeout=300.0)
    except BaseException:
        stack.close()
        raise
    return stack, time.perf_counter() - started


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest reaped child process (the shard), in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _tree_digest(src: Path) -> str:
    """Content digest of ``src`` (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Host and code identity stamped on every result."""
    record: Dict[str, object] = {
        "usable_cores": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_digest": _tree_digest(root / "src"),
        "phase1_recipe": phase1_recipe(),
        "shards": 1,
        "argv": sys.argv[1:],
    }
    record.update(extra or {})
    return record
