"""Persistent, content-addressed simulation result cache.

Every (workload, scale, seed, :class:`~repro.sim.spec.SimSpec`) cell
maps to a deterministic cache key: the SHA-256 of a canonical JSON
rendering of *all* configuration contents plus :data:`CACHE_FORMAT_VERSION`.
Results are stored as JSON blobs (``SimReport.to_dict``) under
``.repro-cache/<first-two-hex>/<key>.json``; a hit deserializes the report
and skips simulation entirely — across processes and sessions.

Invalidation is structural: changing any field of the spec (including
the nested scheduler, GPU timing, energy, mapping, and L2 sub-configs),
the workload scale/seed, or the cache format version yields a different
key, so stale hits are impossible by construction.

Controls:

* ``REPRO_NO_CACHE=1`` disables both lookups and stores;
* ``REPRO_CACHE_DIR`` relocates the cache root (default ``.repro-cache``);
* ``repro-harness cache clear`` wipes it from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.config.gpu import GPUConfig
from repro.sim.report import SimReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.spec import SimSpec

#: Bump whenever the on-disk blob layout or simulator semantics change in
#: a way that invalidates previously stored results.
#: v2: BusUtilizationTracker serialises retained intervals + cursor index
#: (telemetry-safe windowed queries), and reports carry an optional
#: ``timeline`` section.
#: v3: keys carry the DRAM device name and the scheduler fingerprint
#: gained the composable-pipeline fields (``arbiter`` registry names,
#: ``hit_streak_cap``); v2 entries are plain misses.
#: v4: keys embed the *entire* ``SimSpec.to_dict()`` payload (closing
#: the silent-stale-cache class: every present and future spec field —
#: including the new ``ecc``/``faults`` sections and the previously
#: uncovered observability flags — is hashed
#: automatically); v3 entries are plain misses.
#: v5: reports hold results only — each channel keeps its counters, its
#: RBL and read-only RBL histograms and its bus-busy total. Bus
#: intervals and per-activation records are gone from blobs, and the
#: spec flag that toggled the records is gone from keys.
CACHE_FORMAT_VERSION = 5

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_ENV_DISABLE = "REPRO_NO_CACHE"
_ENV_DIR = "REPRO_CACHE_DIR"


def cache_key(
    *,
    app: str,
    scale: float,
    seed: int,
    spec: "SimSpec",
    version: int = CACHE_FORMAT_VERSION,
) -> str:
    """Content hash identifying one simulation cell.

    The key embeds ``spec.to_dict()`` wholesale, so every spec field
    (present and future) is covered by construction; a field omitted
    from ``to_dict`` is the only way to miss, and ``tests/test_spec.py``
    audits exactly that.

    ``spec.config=None`` hashes identically to the default
    :class:`GPUConfig` (that is what the simulator instantiates for it).
    ``spec.device`` is part of the key even though a named device also
    changes the resolved config, so ``--device gddr5`` and the bare
    default stay distinguishable in the cache.
    """
    spec_payload = spec.to_dict()
    if spec_payload.get("config") is None:
        # Preserve the documented equivalence: config=None keys the
        # same as an explicit default GPUConfig.
        from repro.config.codec import encode

        spec_payload["config"] = encode(GPUConfig())
    payload = {
        "version": version,
        "app": app,
        "scale": scale,
        "seed": seed,
        "spec": spec_payload,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cache_disabled_by_env() -> bool:
    """Whether ``REPRO_NO_CACHE`` requests bypassing the disk cache."""
    return os.environ.get(_ENV_DISABLE, "").strip() not in ("", "0")


class ResultCache:
    """Content-addressed store of :class:`SimReport` blobs on disk.

    Instantiating the cache does not touch the filesystem; directories
    are created lazily on the first store.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        enabled: Optional[bool] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(_ENV_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        if enabled is None:
            enabled = not cache_disabled_by_env()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt blobs discarded by :meth:`load` (self-healing events).
        self.quarantined = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Blob path for a cache key (two-level fan-out by key prefix)."""
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Unlink a malformed blob so it cannot poison future runs.

        A corrupt entry (torn write survived a crash, disk error, or an
        injected ``corrupt`` fault) would otherwise turn *every*
        subsequent run of its cell into a hard failure; deleting it
        converts the damage into one extra simulation. Only
        :attr:`quarantined` is counted: whether it was also a miss is
        the caller's call.
        """
        try:
            path.unlink()
        except OSError:
            pass
        self.quarantined += 1

    def _read_blob(self, path: Path) -> Optional[dict]:
        """The current-format blob document at ``path``, or None.

        None covers a missing file, a blob written under another format
        version (kept on disk: healthy, just from a different build) and
        a corrupt one (undecodable JSON or a non-dict document,
        quarantined).
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                blob = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self._quarantine(path)
            return None
        if not isinstance(blob, dict):
            self._quarantine(path)
            return None
        if blob.get("format_version") != CACHE_FORMAT_VERSION:
            return None
        return blob

    def _report_of(self, path: Path, blob: dict) -> Optional[SimReport]:
        """Decode a blob's report; a payload :meth:`SimReport.from_dict`
        rejects (or a missing ``report`` section) is quarantined."""
        try:
            return SimReport.from_dict(blob["report"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self._quarantine(path)
            return None

    def load(self, key: str) -> Optional[SimReport]:
        """Return the cached report for ``key``, or None on a miss.

        Malformed blobs self-heal: undecodable JSON, non-dict documents,
        a missing ``report`` section, or payloads
        :meth:`SimReport.from_dict` rejects are unlinked and counted in
        :attr:`quarantined`, then reported as a plain miss. A
        format-version mismatch is a miss but is *kept* on disk — the
        blob is healthy, just written by a different build.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        blob = self._read_blob(path)
        report = self._report_of(path, blob) if blob is not None else None
        if report is None:
            self.misses += 1
        else:
            self.hits += 1
        return report

    def store(
        self,
        key: str,
        report: SimReport,
        *,
        meta: Optional[dict] = None,
    ) -> Optional[Path]:
        """Persist ``report`` under ``key``; returns the blob path.

        The blob is written to a temp file and atomically renamed so a
        concurrent reader never sees a torn write.

        ``meta`` is an optional JSON-serializable sidecar recorded next
        to the report (``{"app", "scale", "seed", "spec"}`` from the
        runner). The content key is a one-way hash, so without it the
        warehouse ingest could not recover which seed or device produced
        a blob. :meth:`load` ignores the extra key, so old and new blobs
        interoperate without a format-version bump.
        """
        if not self.enabled:
            return None
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = {
            "format_version": CACHE_FORMAT_VERSION,
            "workload": report.workload,
            "scheme": report.scheme,
            "report": report.to_dict(),
        }
        if meta is not None:
            blob["meta"] = meta
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(blob, fh, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All blob paths currently in the cache.

        Tolerates another process mutating the cache concurrently (e.g.
        ``repro-harness cache clear`` mid-sweep): shard directories or
        blobs vanishing between listing steps are simply skipped, as are
        in-flight ``.tmp-*`` files from concurrent writers.
        """
        found: list[Path] = []
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return []
        for shard in shards:
            try:
                found.extend(
                    p for p in shard.iterdir()
                    if p.suffix == ".json" and not p.name.startswith(".")
                )
            except (NotADirectoryError, OSError):
                continue
        return sorted(found)

    def iter_blobs(self):
        """Lazily yield ``(key, blob_dict, mtime, size_bytes)`` tuples.

        One blob is resident at a time, so a multi-thousand-entry cache
        can be traversed in constant memory — this is the shared walk
        under both :meth:`iter_entries` and the warehouse ingest.
        Corrupt blobs are quarantined exactly as in :meth:`load`;
        format-version mismatches are skipped but kept on disk (healthy,
        just written by a different build). Session hit/miss counters
        are *not* touched: a traversal is not a lookup.
        """
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently cleared
            blob = self._read_blob(path)
            if blob is not None:
                yield path.stem, blob, stat.st_mtime, stat.st_size

    def iter_entries(self):
        """Lazily yield ``(content_key, SimReport, mtime)`` tuples.

        Blobs whose ``report`` section no longer deserializes are
        quarantined (unlinked + counted), matching :meth:`load`.
        """
        for key, blob, mtime, _size in self.iter_blobs():
            report = self._report_of(self.path_for(key), blob)
            if report is not None:
                yield key, report, mtime

    def size_bytes(self) -> int:
        """Total bytes occupied by cached blobs.

        Blobs deleted between listing and ``stat`` (concurrent clear)
        count as zero instead of raising ``FileNotFoundError``.
        """
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def info(self, *, deep: bool = False) -> dict:
        """Machine-readable snapshot of the cache (one atomic listing).

        ``entries`` and ``size_bytes`` are derived from a *single*
        traversal, so they describe the same instant even when another
        process is storing or clearing concurrently — calling
        :meth:`entries` and :meth:`size_bytes` separately could report a
        count and a byte total from two different cache states. Session
        counters (hits/misses/stores/quarantined) describe this
        process's cache object, not the directory.

        ``deep=True`` rides the same :meth:`iter_blobs` walk the
        warehouse ingest uses and additionally reports per-workload and
        per-scheme entry counts (``workloads``/``schemes`` maps, sorted
        keys); entries written under a different format version are
        excluded, so deep counts reflect what ingest would see.
        """
        total = 0
        count = 0
        if deep:
            workloads: dict[str, int] = {}
            schemes: dict[str, int] = {}
            for _key, blob, _mtime, size in self.iter_blobs():
                count += 1
                total += size
                workload = str(blob.get("workload", "?"))
                scheme = str(blob.get("scheme", "?"))
                workloads[workload] = workloads.get(workload, 0) + 1
                schemes[scheme] = schemes.get(scheme, 0) + 1
        else:
            for path in self.entries():
                count += 1
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        doc = {
            "root": str(self.root),
            "enabled": self.enabled,
            "format_version": CACHE_FORMAT_VERSION,
            "entries": count,
            "size_bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }
        if deep:
            doc["workloads"] = dict(sorted(workloads.items()))
            doc["schemes"] = dict(sorted(schemes.items()))
        return doc

    def clear(self) -> int:
        """Delete every cached blob; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        # Prune now-empty shard directories (ignore stray files).
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed
