"""The workloads measured through child processes: ``cli_cold`` and ``serve_warm``.

``cli_cold`` runs one fresh ``python -m repro.cli <command> --json FILE``
process per op (closed loop, one client, no ``--cache-dir``).
``serve_warm`` boots ``python -m repro.cli serve --workers 2`` and drives it
with two closed-loop client threads, one connection each.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from checks import expected_exit, masked
from common import (
    POLICY_FILE,
    Run,
    Scratch,
    SpeedSampler,
    child_env,
    descendants,
    timed_setups,
    vm_hwm_mb,
)
from inprocess import COMMANDS, command_text, count_document
from spans import TimedStore

PYTHON = sys.executable

#: serve_warm's request deck: per command, how many requests of one deck;
#: a tenth of each are edits, and the warm rest goes 70/20/10 to the
#: multi-entity chains, the paper programs and the mux.
DECK = (("analyze", 120), ("check", 50), ("lint", 30))
GROUPS = (("multi", 0.7), ("paper", 0.2))


def _facts_for(name: str) -> Dict[str, Any]:
    """Hand-known facts of the named workloads of ``repro.workloads``."""
    if name == "synthetic_chain":  # synthetic_chain_program(2, 8)
        return {"labels": 2 * (8 + 4), "reach": ("chain_in", "chain_out"),
                "violation": ("chain_in", "chain_out")}
    return {"paper": name}


# -------------------------------------------------------------------- cli_cold


#: The chain files of the cli_cold corpus (processes, assignments).
CLI_CHAINS = ((2, 8), (4, 16), (8, 32))


def cli_corpus(seed: int, scratch: Scratch) -> List[Tuple[Path, str, Dict[str, Any]]]:
    """Seeded files: batch and hierarchy workloads plus small chains."""
    from repro.workloads import (
        batch_workload_sources,
        hierarchy_workload_sources,
        synthetic_chain_program,
    )

    rng = random.Random(seed)
    picked = rng.sample(batch_workload_sources(), 4)
    picked_hier = rng.sample(hierarchy_workload_sources(), 2)
    corpus = []
    for name, source in picked:
        corpus.append((scratch.file(f"{name}.vhd", source), source, _facts_for(name)))
    for name, source in picked_hier:
        corpus.append((scratch.file(f"{name}.vhd", source), source, {}))
    # Fixed chain sizes: the seed draws which small files join them, so
    # every seed's corpus costs about the same.
    for index, (processes, assignments) in enumerate(CLI_CHAINS):
        name = f"chain_{index}_{rng.randrange(10_000)}"
        source = synthetic_chain_program(processes, assignments, name=name)
        facts = {"design": name, "labels": processes * (assignments + 4),
                 "reach": ("chain_in", "chain_out"),
                 "violation": ("chain_in", "chain_out")}
        corpus.append((scratch.file(f"{name}.vhd", source), source, facts))
    return corpus


def cli_args(command: str, path: Path) -> List[str]:
    args = [PYTHON, "-m", "repro.cli", command, "--json", str(path)]
    if command == "check":
        args += ["--policy", str(POLICY_FILE)]
    return args


def cli_op(run: Run, command: str, path: Path, facts: Dict[str, Any], cwd: Path) -> Optional[float]:
    """One cold CLI process; checks its document and its exit code."""
    factor = run.calibrate()
    started = time.perf_counter()
    try:
        with run.tracer.span("op"):
            done = subprocess.run(
                cli_args(command, path), capture_output=True, text=True,
                timeout=60, env=child_env(), cwd=cwd,
            )
    except subprocess.TimeoutExpired:
        run.fail(f"{command} {path.name}: timeout")
        return None
    elapsed = (time.perf_counter() - started) * factor
    document, reason = run.checker.document(done.stdout, command, facts, key=f"{path}:{command}")
    if reason is None and done.returncode != expected_exit(command, document):
        reason = f"exit code {done.returncode}: {done.stderr.strip()[-200:]}"
    if reason is not None:
        run.fail(f"{command} {path.name}: {reason}")
        return None
    run.ok(elapsed, (path.name, command))
    return elapsed


def cli_cold(run: Run) -> None:
    scratch = Scratch("cli")
    try:
        def setup() -> List[Tuple[Path, str, Dict[str, Any]]]:
            corpus = cli_corpus(run.seed, scratch)
            # Warm-up: one process compiles the bytecode later ones reuse.
            subprocess.run(cli_args("analyze", corpus[0][0]), capture_output=True,
                           timeout=120, env=child_env(), cwd=scratch.path)
            return corpus

        corpus = timed_setups(run, setup, lambda _corpus: None)
        rng = random.Random(run.seed + 1)
        pairs = [(entry, command) for entry in corpus for command in COMMANDS]
        done: List[Tuple[Tuple[Path, str, Dict[str, Any]], str]] = []
        window_start = time.perf_counter()
        stop = window_start + run.seconds
        while time.perf_counter() < stop:
            rng.shuffle(pairs)
            for (path, source, facts), command in pairs:
                if time.perf_counter() >= stop:
                    break
                if cli_op(run, command, path, facts, scratch.path) is not None:
                    done.append(((path, source, facts), command))
        run.window_s = time.perf_counter() - window_start
        run.finish_checks()
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if run.tracer.enabled:
            cli_layers(run, corpus, done, scratch.path)
    finally:
        scratch.close()


def _median_child_ms(args: List[str], cwd: Path, repeat: int = 7) -> float:
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        subprocess.run(args, capture_output=True, timeout=60, env=child_env(), cwd=cwd)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000.0


def cli_layers(run: Run, corpus, done, cwd: Path) -> None:
    """Startup probes plus an in-process replay of each distinct op."""
    from repro.workspace import Workspace

    interpreter = _median_child_ms([PYTHON, "-c", "pass"], cwd)
    imported = _median_child_ms([PYTHON, "-c", "import repro.cli"], cwd)
    run.layers["startup.interpreter_ms"] = interpreter
    run.layers["startup.import_ms"] = imported - interpreter
    policy = Workspace().load_policy(POLICY_FILE)
    tracer = run.tracer
    window_spans = len(tracer.spans)
    replay: Dict[Tuple[str, str], float] = {}
    for path, source, facts in corpus:
        for command in COMMANDS:
            started = time.perf_counter()
            with tracer.span("replay"):
                text = command_text(Workspace(memory_cache=False), command, source,
                                    policy, str(path), run)
            replay[(str(path), command)] = time.perf_counter() - started
            count_document(run, command, json.loads(text))
    # A cold op = interpreter + imports + the replayed work; the rest is
    # what neither the startup probes nor the layer spans account for.
    wall = sum(end - start for name, start, end, _p in tracer.spans[:window_spans])
    accounted = sum(
        imported / 1000.0 + replay[(str(entry[0]), command)]
        for entry, command in done
    )
    run.layers["unattributed_s"] = max(0.0, wall - accounted)
    run.layers["trace.wall_s"] = wall


# ------------------------------------------------------------------ serve_warm

#: The volatile top-level members of a served document and the character
#: that closes each (neither value nests).
_VOLATILE = (('"timings": ', "}"), ('"cached_stages": ', "]"))


def _stable_digest(text: str) -> str:
    """sha1 of a served document without its volatile members.

    They are top-level members, the last of the document, so the last
    occurrence of each key is theirs.  ``str.rfind`` rather than a regular
    expression: the client threads share one GIL, and scanning a 640 KB
    analyze document with ``re`` held it for 2.4 ms, time in which the
    other client's reply waited and its latency grew.
    """
    cuts = []
    for key, close in _VOLATILE:
        start = text.rfind(key)
        if start >= 0:
            cuts.append((start, text.index(close, start) + 1))
    digest = hashlib.sha1()
    position = 0
    for start, end in sorted(cuts):
        digest.update(text[position:start].encode("utf-8"))
        position = end
    digest.update(text[position:].encode("utf-8"))
    return digest.hexdigest()


class Client:
    """Plain HTTP against the server; the server closes each connection."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, str]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            connection.close()


def serve_corpus(seed: int, scratch: Scratch):
    """Distinct warm requests ``(kind, payload, facts)`` and the deck maker."""
    from repro.workloads import (
        hierarchical_mux_program,
        multi_entity_program,
        synthetic_chain_program,
    )
    from repro import workloads

    policy = json.loads(POLICY_FILE.read_text(encoding="utf-8"))
    multi = scratch.file("multi.vhd", multi_entity_program(8, 8, 32))
    targets: List[Tuple[Dict[str, Any], Dict[str, Any], str]] = []
    for index in range(8):
        name = f"chain_{index}"
        targets.append(({"file": str(multi), "entity": name},
                        {"design": name, "labels": 8 * (32 + 4),
                         "reach": ("chain_in", "chain_out"),
                         "violation": ("chain_in", "chain_out")}, "multi"))
    for name in ("paper_program_a", "paper_program_b", "challenge_f",
                 "producer_consumer", "two_phase"):
        generator = getattr(workloads, name if name.startswith("paper") else f"{name}_program")
        path = scratch.file(f"{name}.vhd", generator())
        targets.append(({"file": str(path)}, {"paper": name}, "paper"))
    mux = scratch.file("mux_top.vhd", hierarchical_mux_program())
    targets.append(({"file": str(mux)}, {"design": "mux_top"}, "mux"))

    def payload(kind: str, base: Dict[str, Any]) -> Dict[str, Any]:
        return {**base, "policy": policy} if kind == "check" else dict(base)

    def deck(rng: random.Random) -> List[Tuple[str, Dict[str, Any], Dict[str, Any], bool]]:
        """One shuffled deck of requests with the fixed mix of ``DECK``.

        A fixed mix rather than independent draws: every run, whatever its
        seed, asks for the same share of each command and target group, so
        the medians and the request rate do not follow the draw.  The 8x32
        entities carry most requests, so each command's median falls inside
        one cost mode rather than between two.
        """
        requests = []
        for kind, count in DECK:
            edits = count // 10
            for _ in range(edits):
                name = f"edit_{rng.randrange(10**9)}"
                source = synthetic_chain_program(4, 16, name=name)
                facts = {"design": name, "labels": 4 * 20, "reach": ("chain_in", "chain_out"),
                         "violation": ("chain_in", "chain_out")}
                requests.append((kind, payload(kind, {"source": source}), facts, True))
            warm = count - edits
            sizes = [round(share * warm) for _group, share in GROUPS]
            sizes.append(warm - sum(sizes))
            for group, size in zip(("multi", "paper", "mux"), sizes):
                members = [t for t in targets if t[2] == group]
                rng.shuffle(members)
                for index in range(size):
                    base, facts, _ = members[index % len(members)]
                    requests.append((kind, payload(kind, base), facts, False))
        rng.shuffle(requests)
        return requests

    warm = [(kind, payload(kind, base), facts) for base, facts, _ in targets for kind in COMMANDS]
    return warm, deck, multi


def _scrape(client: Client) -> Dict[str, Any]:
    status, text = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(text)


class ServeLoad:
    """The shared state of the closed-loop clients."""

    def __init__(self, run: Run, client: Client, deck, seed: int):
        self.run = run
        self.client = client
        self.deck = deck
        self.rng = random.Random(seed + 2)
        self.pending: List[Tuple[str, Dict[str, Any], Dict[str, Any], bool]] = []
        self.lock = threading.Lock()
        self.digests: Dict[str, str] = {}
        self.samples: List[Tuple[float, Tuple[str, str]]] = []
        self.replayed: List[Tuple[str, Dict[str, Any]]] = []

    def next_request(self):
        with self.lock:
            if not self.pending:
                self.pending = self.deck(self.rng)
            request = self.pending.pop()
            if len(self.replayed) < 100:
                self.replayed.append((request[0], request[1]))
            return request

    def check(self, kind: str, payload, facts, text: str, edited: bool) -> Optional[str]:
        key = json.dumps([kind, {k: v for k, v in payload.items() if k != "policy"}], sort_keys=True)
        with self.lock:
            known = self.digests.get(key)
        if known is not None and not edited:
            return None if _stable_digest(text) == known else "document changed between requests"
        # Outside the lock: parsing is the slow part.  Two threads may both
        # see a key as new and both check it, which costs time, not truth.
        document, reason = self.run.checker.document(text, kind, facts, key=None if edited else key)
        if reason is None and not edited:
            with self.lock:
                self.digests[key] = _stable_digest(text)
        return reason

    def client_loop(self, stop: float) -> None:
        run = self.run
        while time.perf_counter() < stop:
            kind, payload, facts, edited = self.next_request()
            started = time.perf_counter()
            try:
                status, text = self.client.request("POST", f"/{kind}", payload)
            except (OSError, http.client.HTTPException) as error:
                with self.lock:
                    run.fail(f"{kind}: {error!r}")
                time.sleep(0.01)
                continue
            elapsed = time.perf_counter() - started
            reason = f"status {status}" if status != 200 else self.check(
                kind, payload, facts, text, edited)
            with self.lock:
                if reason is not None:
                    run.fail(f"{kind}: {reason}")
                else:
                    # The distinct request: its target, or any edit.
                    target = "edit" if edited else payload.get("entity") or payload["file"]
                    self.samples.append((elapsed, (target, kind)))


def start_server(scratch: Scratch, cache_dir: Path) -> Tuple[subprocess.Popen, Client]:
    """Boot ``vhdl-ifa serve`` on an ephemeral port; read the port from its log."""
    log = scratch.path / f"{cache_dir.name}.log"
    with open(log, "w", encoding="utf-8") as handle:
        process = subprocess.Popen(
            [PYTHON, "-m", "repro.cli", "serve", "--workers", "2",
             "--cache-dir", str(cache_dir), "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=handle, env=child_env(), cwd=scratch.path,
        )
    limit = time.perf_counter() + 90
    while time.perf_counter() < limit:
        match = re.search(r"listening on http://([\d.]+):(\d+)", log.read_text(encoding="utf-8"))
        if match:
            return process, Client(match.group(1), int(match.group(2)))
        if process.poll() is not None:
            break
        time.sleep(0.02)
    stop_server(process, [])
    raise RuntimeError(f"server did not start: {log.read_text(encoding='utf-8')[-500:]}")


def stop_server(process: subprocess.Popen, family: List[int]) -> None:
    """SIGTERM (graceful drain), then kill whatever is left, and reap.

    ``family`` holds the worker pids seen while the server ran; any still
    alive after the drain (a server that died without stopping its pool)
    is killed and waited for.
    """
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
    leftovers = [pid for pid in family if _is_python(pid)]
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    limit = time.perf_counter() + 10
    while leftovers and time.perf_counter() < limit:
        leftovers = [pid for pid in leftovers if _is_python(pid)]
        time.sleep(0.05)


def _is_python(pid: int) -> bool:
    """True while ``pid`` is a live (not zombie) python process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z" and b"python" in cmdline


def serve_warm(run: Run) -> None:
    run.over_ops = False
    scratch = Scratch("serve")
    servers: List[subprocess.Popen] = []
    family: List[int] = []
    try:
        def setup():
            """Corpus, a server on a fresh cache directory, and the warm-up."""
            warm, deck, multi = serve_corpus(run.seed, scratch)
            cache_dir = scratch.path / f"cache-{len(servers)}"
            process, client = start_server(scratch, cache_dir)
            servers.append(process)
            load = ServeLoad(run, client, deck, run.seed)
            for kind, payload, facts in warm:
                status, text = client.request("POST", f"/{kind}", payload)
                reason = f"status {status}" if status != 200 else load.check(
                    kind, payload, facts, text, False)
                if reason is None:
                    run.passed()
                else:
                    run.fail(f"warm {kind}: {reason}")
            return process, client, load, warm, multi, cache_dir

        def teardown(state) -> None:
            stop_server(state[0], descendants(state[0].pid))

        # Three boots, not five: each one spawns a pool and warms its cache.
        process, client, load, warm, multi, cache_dir = timed_setups(
            run, setup, teardown, times=3, sampled=True
        )
        family = descendants(process.pid)
        before = _scrape(client)
        disk_before = _disk_bytes(cache_dir)
        # One closed loop for the whole window, scaled by the machine's
        # speed sampled beside it (see SpeedSampler).
        with SpeedSampler(run.probe) as sampler:
            window_start = time.perf_counter()
            stop = window_start + run.seconds
            threads = [threading.Thread(target=load.client_loop, args=(stop,))
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            run.window_s = time.perf_counter() - window_start
        for seconds, key in load.samples:
            run.ok(seconds, key)
        run.scale(sampler)
        run.finish_checks()
        after = _scrape(client)
        live = descendants(process.pid)
        family = sorted(set(family) | set(live))
        run.peak_rss_mb = sum(_hwm(pid) for pid in [process.pid] + live)
        unscaled = [seconds for seconds, _key in load.samples]
        _serve_layers(run, unscaled, before, after, disk_before, cache_dir)
        cross_surface(run, client, multi, scratch)
        if run.tracer.enabled:
            serve_replay(run, warm, load.replayed, scratch)
    except (OSError, RuntimeError, ValueError) as error:
        run.fail(f"serve: {error!r}")
    finally:
        for server in servers:
            stop_server(server, family if server is servers[-1] else [])
        scratch.close()


def _hwm(pid: int) -> float:
    try:
        return vm_hwm_mb(pid)
    except OSError:
        return 0.0


def _disk_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _serve_layers(
    run: Run, unscaled: List[float], before, after, disk_before: int, cache_dir: Path
) -> None:
    """Deltas of the server's own counters across the window."""
    def delta(*path: str) -> float:
        a, b = after, before
        for part in path:
            a, b = a.get(part, 0) if isinstance(a, dict) else 0, b.get(part, 0) if isinstance(b, dict) else 0
        return float((a or 0) - (b or 0))

    count = delta("latency", "request", "count")
    server_s = delta("latency", "request", "sum_seconds")
    server_ms = server_s / count * 1000.0 if count else 0.0
    client_ms = statistics.mean(unscaled) * 1000.0 if unscaled else 0.0
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    run.layers.update({
        "serve.server_ms": server_ms,
        "serve.transport_ms": client_ms - server_ms,
        "serve.dedup_hits": delta("dedup_hits"),
        "serve.shed": delta("shed"),
        "serve.timeouts": delta("timeouts"),
        "pool.restarts": delta("worker_restarts"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.disk.bytes_written": float(_disk_bytes(cache_dir) - disk_before),
    })


def cross_surface(run: Run, client: Client, multi: Path, scratch: Scratch) -> None:
    """serve, in-process and CLI documents of one request agree when masked."""
    from repro.pipeline.render import volatile_pointers
    from repro.workspace import Workspace

    traced, run.tracer.enabled = run.tracer.enabled, False
    policy = json.loads(POLICY_FILE.read_text(encoding="utf-8"))
    entity = f"chain_{run.seed % 8}"
    source = multi.read_text(encoding="utf-8")
    for kind in COMMANDS:
        payload = {"file": str(multi), "entity": entity}
        if kind == "check":
            payload["policy"] = policy
        status, served = client.request("POST", f"/{kind}", payload)
        workspace = Workspace(memory_cache=False)
        local = command_text(workspace, kind, source, workspace.policy(policy), str(multi),
                             run, entity=entity)
        args = cli_args(kind, multi) + ["--entity", entity]
        cli = subprocess.run(args, capture_output=True, text=True, timeout=60,
                             env=child_env(), cwd=scratch.path)
        pointers = volatile_pointers(kind)
        texts = {masked(json.loads(text), pointers) for text in (served, local, cli.stdout)}
        if status == 200 and len(texts) == 1:
            run.passed()
        else:
            run.fail(f"{kind}: serve, in-process and CLI documents differ")
    run.tracer.enabled = traced


def serve_replay(run: Run, warm, replayed, scratch: Scratch) -> None:
    """The layer split of served requests, replayed in-process.

    The warm set fills a tiered cache untraced; then the first requests of
    the seeded schedule are replayed traced, through a timing wrapper around
    the disk tier, as the pool workers would run them.
    """
    from repro.pipeline.cache import ArtifactCache, DiskArtifactCache, TieredArtifactCache
    from repro.workspace import Workspace

    tracer = run.tracer
    disk = TimedStore(DiskArtifactCache(scratch.path / "replay-cache"), "disk", tracer)
    memory = TimedStore(ArtifactCache(), "memory", tracer)
    workspace = Workspace(cache=TieredArtifactCache(memory, disk))
    policy = workspace.policy(json.loads(POLICY_FILE.read_text(encoding="utf-8")))

    def replay(kind: str, payload: Dict[str, Any]) -> str:
        source = payload.get("source")
        if source is None:
            source = Path(payload["file"]).read_text(encoding="utf-8")
        return command_text(workspace, kind, source, policy, payload.get("file"),
                            run, entity=payload.get("entity"))

    tracer.enabled = False
    for kind, payload, _facts in warm:
        replay(kind, payload)
    tracer.enabled = True
    for kind, payload in replayed:
        with tracer.span("op"):
            text = replay(kind, payload)
        tracer.count("render.bytes", len(text))
        count_document(run, kind, json.loads(text))
