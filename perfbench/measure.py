"""Small measurement helpers shared by the runner and compare mode."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of nothing")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def timed(fn, *args):
    """``(seconds, result)`` of one call."""
    start = perf_counter()
    result = fn(*args)
    return perf_counter() - start, result


#: Seconds a short step is repeated for by :func:`median_time`.
STEP_WINDOW_S = 0.5


def median_time(fn, *args, host):
    """Time a step, called until :data:`STEP_WINDOW_S` seconds have
    passed (at least once) so the samples of a short step span more
    than one moment of a noisy host; a probe of ``host``
    (``host.HostSpeed``) after each call corrects it.  Returns
    ``(median raw s, median corrected s, last result)``."""
    times, slowdowns = [], []
    result = None
    start = perf_counter()
    while not times or perf_counter() - start < STEP_WINDOW_S:
        # Drop the previous result first: two live results (a loaded
        # study) would make the peak RSS depend on the repeat count.
        result = None
        seconds, result = timed(fn, *args)
        times.append(seconds)
        slowdowns.append(host.probe())
    raw = median(times)
    corrected = median(t / s for t, s in zip(times, slowdowns))
    return raw, corrected, result


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def du_bytes(directory: str | Path) -> int:
    total = 0
    for base, _dirs, files in os.walk(directory):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha(directory: Path) -> str:
    """Digest of every Python file under ``directory``: identifies the
    measured code even where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_sha(root / "src"),
        "bench_sha256": source_sha(Path(__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": sys.platform,
    }
