"""Workload definitions and input generation for the SLIM benchmark.

Every input comes from the repository's own generators and pair sampler,
called by slim_bench --mode generate: each workload fixes its master
population (a city of check-in users, a cab fleet) by a master seed, and
the --seed passed on the command line draws the two sides from it, so one
seed always gives the same bytes and every seed links the same city. Each workload also gets a protocol stream: the request lines a
slim_serve client sends (INGEST ... / LINK / TOPK ...), written once so the
socket client and the in-process traced run replay the same requests.
"""
import dataclasses
import os
import random
import struct
import subprocess

# One INGEST line carries up to 1024 records and stays under the
# protocol's 64 KiB line cap: fewer round trips make the ingest rate
# measure parsing more than the box's wake-up latency.
RECORDS_PER_INGEST = 1024
MAX_LINE_BYTES = 60000
EPOCH_SECONDS = 6 * 3600
TOPK_PER_LINK = 20
# Batch workloads load the daemon in one bulk epoch, then read as many
# TOPK replies as the stream workload's 104 epochs do.
BULK_TOPK_READS = 2080


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    generate: tuple      # slim_bench --mode generate flags
    small: tuple         # the same, scaled down for the self-test
    ext: str             # side file extension: csv or sbin
    link_flags: tuple    # extra slim_link flags; "{sctx}" is substituted
    streamed: bool       # time-ordered epochs (True) or one bulk epoch


# The lowest F1 any workload may reach, on any seed and at either scale;
# measured F1 is 0.93 to 1.0.
F1_FLOOR = 0.90
OOC_FLAGS = ("--sctx", "{sctx}", "--left_shards", "2", "--shards", "4",
             "--no_graph", "--spill_run_mb", "4")

# Why each workload was chosen: BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="checkin-batch",
        generate=("--workload", "sm", "--entities", "20000",
                  "--side_entities", "10000", "--master_seed", "1301"),
        small=("--workload", "sm", "--entities", "2000",
               "--side_entities", "1000", "--master_seed", "1301"),
        ext="csv", link_flags=(), streamed=False),
    Workload(
        name="cab-batch",
        generate=("--workload", "cab", "--entities", "400", "--days", "6",
                  "--master_seed", "1303"),
        small=("--workload", "cab", "--entities", "40", "--days", "2",
               "--master_seed", "1303"),
        ext="csv", link_flags=(), streamed=False),
    Workload(
        name="checkin-ooc",
        generate=("--workload", "sm", "--entities", "20000",
                  "--side_entities", "10000", "--master_seed", "1301",
                  "--format", "sbin"),
        small=("--workload", "sm", "--entities", "2000",
               "--side_entities", "1000", "--master_seed", "1301",
               "--format", "sbin"),
        ext="sbin", link_flags=OOC_FLAGS, streamed=False),
    Workload(
        name="serve-stream",
        generate=("--workload", "sm", "--entities", "3000",
                  "--side_entities", "1500", "--master_seed", "1305"),
        small=("--workload", "sm", "--entities", "600",
               "--side_entities", "300", "--days", "4",
               "--master_seed", "1305"),
        ext="csv", link_flags=(), streamed=True),
)}


@dataclasses.dataclass
class Inputs:
    a: str
    b: str
    truth: str
    stream: str          # protocol request lines, one per line
    files: tuple         # generated files, for the input fingerprint


def _side_texts(path, ext):
    """The side's records as "entity lat lng ts" byte strings, file order."""
    with open(path, "rb") as f:
        data = f.read()
    if ext == "sbin":
        (count,) = struct.unpack_from("<Q", data, 8)
        if data[:4] != b"SBIN" or len(data) != 16 + 32 * count:
            raise ValueError(f"{path}: not an SBIN v1 file")
        # repr() is the shortest text that parses back to the same double,
        # so the daemon sees the bits slim_link reads.
        return [f"{e} {lat!r} {lng!r} {ts}".encode() for e, lat, lng, ts
                in struct.iter_unpack("<qddq", memoryview(data)[16:])]
    lines = data.replace(b",", b" ").split(b"\n")
    return [line for line in lines if line[:1].isdigit()]  # no header


def _entity(text):
    return int(text.split(b" ", 1)[0])


def _timestamp(text):
    return int(text.rsplit(b" ", 1)[1])


def _ingest_lines(side, texts):
    line, count = b"INGEST " + side, 0
    for text in texts:
        if count == RECORDS_PER_INGEST or \
                len(line) + len(text) >= MAX_LINE_BYTES:
            yield line
            line, count = b"INGEST " + side, 0
        line += b" " + text
        count += 1
    if count:
        yield line


def _topk_lines(rng, entities, n):
    return [b"TOPK %d" % rng.choice(entities) for _ in range(n)] \
        if entities else []


def write_stream(workload, a, b, path, seed):
    """Writes the protocol stream for `workload`.

    Streamed workloads cut the time-ordered union of both sides into
    EPOCH_SECONDS epochs (INGEST lines, LINK, TOPK_PER_LINK seeded reads of
    left entities seen so far); batch workloads send everything, one LINK
    and BULK_TOPK_READS reads.
    """
    rng = random.Random(seed)
    side_a = _side_texts(a, workload.ext)
    side_b = _side_texts(b, workload.ext)
    lines = []
    if not workload.streamed:
        lines += _ingest_lines(b"A", side_a)
        lines += _ingest_lines(b"B", side_b)
        lines.append(b"LINK")
        lines += _topk_lines(rng, sorted({_entity(t) for t in side_a}),
                             BULK_TOPK_READS)
    else:
        t0 = min(_timestamp(t) for t in side_a + side_b)
        epochs = {}
        for side, texts in ((0, side_a), (1, side_b)):
            for text in texts:
                epochs.setdefault((_timestamp(text) - t0) // EPOCH_SECONDS,
                                  ([], []))[side].append(text)
        seen = set()
        for k in range(max(epochs) + 1):
            texts_a, texts_b = epochs.get(k, ([], []))
            texts_a.sort(key=_timestamp)
            texts_b.sort(key=_timestamp)
            lines += _ingest_lines(b"A", texts_a)
            lines += _ingest_lines(b"B", texts_b)
            lines.append(b"LINK")
            seen.update(_entity(t) for t in texts_a)
            lines += _topk_lines(rng, sorted(seen), TOPK_PER_LINK)
    with open(path, "wb") as f:
        f.write(b"\n".join(lines) + b"\n")


def generate(workload, slim_bench, out_dir, seed, small, log):
    """Generates one workload's inputs into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "in_")
    flags = workload.small if small else workload.generate
    subprocess.run([slim_bench, "--mode", "generate", *flags, "--seed",
                    str(seed), "--out_prefix", prefix],
                   stdout=log, stderr=log, check=True, timeout=120)
    a = f"{prefix}a.{workload.ext}"
    b = f"{prefix}b.{workload.ext}"
    stream = os.path.join(out_dir, "stream.txt")
    write_stream(workload, a, b, stream, seed)
    return Inputs(a=a, b=b, truth=f"{prefix}truth.csv", stream=stream,
                  files=(a, b, f"{prefix}truth.csv"))
