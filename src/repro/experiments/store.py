"""Content-addressed, engine-versioned result store.

The store is the one on-disk home for finished case results; a shard
artifact is only a receipt naming the cache keys (and digests) a shard
executed, and ``repro merge`` replays those keys from a store:

* entries are **content-addressed** by the existing ``CaseSpec.cache_key()``
  (which already folds in :data:`~repro.experiments.executor.ENGINE_VERSION`,
  the pair, config, preset, scale, seed offset and overrides), laid out as
  ``<store>/<engine>/<key[:2]>/<key>.json``;
* every entry embeds a SHA-256 digest of its canonical result payload, so
  bit-rot, truncated writes and hand-edits are detected instead of silently
  merged into figures;
* :meth:`ResultStore.export` / :meth:`ResultStore.ingest` exchange entries
  through one format, the ``store-export`` payload (``repro store export``
  output), refusing cross-engine imports;
* :meth:`ResultStore.gc` drops entries from stale engine revisions (and,
  given manifest hashes, prunes superseded-manifest entries) and
  :meth:`ResultStore.verify` audits the whole store;
* :meth:`ResultStore.register_manifest` records which cache keys a manifest
  owns (``<store>/<engine>/manifests/<hash>.json``), so ``gc``/``export``
  can be **manifest-scoped** — the exchange unit stops growing with
  superseded manifests;
* :meth:`ResultStore.ingest_url` federates stores: it pulls a remote
  service's ``/v1/store/export`` payload through the same digest-verified
  :meth:`ResultStore.ingest` path used for local exports.

:class:`~repro.experiments.executor.RunResultCache` consults a store (from
``REPRO_STORE_DIR`` or an explicit instance) as its second level — memory
→ store — and writes every finished simulation through to it, so any
machine or CI shard can publish results for every other to reuse without
re-simulating.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
from typing import Dict, List, Optional, Tuple

from ..cpu.stats import RunResult, run_result_from_dict, run_result_to_dict
from .executor import ENGINE_VERSION, atomic_write_json, sweep_tmp_files

__all__ = ["MANIFESTS_DIR", "MANIFEST_SCHEMA", "QUARANTINE_DIR",
           "STORE_SCHEMA", "ResultStore", "env_store", "result_digest"]

logger = logging.getLogger(__name__)

#: Name of the store subdirectory corrupt entries are moved into.  Keeping
#: the damaged bytes (instead of just treating them as a miss) preserves the
#: evidence — bit-rot, a torn sync, a nondeterministic build — while
#: guaranteeing the entry can never be served again.
QUARANTINE_DIR = "quarantine"

#: Store entry schema revision (bumped on incompatible entry-layout changes).
STORE_SCHEMA = 1

#: Name of the per-engine subdirectory holding manifest indexes.  It sits
#: next to the two-hex-char entry buckets, which every bucket walk filters
#: by name — so indexes are invisible to ``keys``/``verify``/``export``.
MANIFESTS_DIR = "manifests"

#: Manifest-index schema revision.
MANIFEST_SCHEMA = 1

#: Legitimate entry keys are ``CaseSpec.cache_key()`` SHA-256 hex digests.
#: Ingest fullmatches every export key against this before building a
#: path from it: exports are a cross-machine exchange format, and a
#: crafted key like ``../../x`` (or one with a trailing newline, which a
#: ``$``-anchored match would accept) must never reach the filesystem.
_KEY_RE = re.compile(r"[0-9a-f]{64}")

#: Marker file written at the store root on first write.  ``gc`` refuses to
#: run without it: deleting "stale engine" subdirectories of a directory
#: that is not actually a result store (a mistyped ``--dir`` or
#: ``REPRO_STORE_DIR``) would be recursive deletion of arbitrary user data.
STORE_MARKER = ".repro-result-store.json"


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def result_digest(data: dict) -> str:
    """SHA-256 over the canonical JSON serialisation of a result payload."""
    return hashlib.sha256(_canonical(data).encode("utf-8")).hexdigest()


def env_store() -> "Optional[ResultStore]":
    """Store from the ``REPRO_STORE_DIR`` environment variable (or ``None``)."""
    directory = os.environ.get("REPRO_STORE_DIR") or None
    if directory is None:
        return None
    return ResultStore(directory)


class ResultStore:
    """A directory of content-addressed, digest-verified run results.

    Args:
        directory: store root.  When omitted, ``REPRO_STORE_DIR`` is
            consulted; a store always needs an explicit location (unlike the
            result cache there is no memory-only mode — a store exists to be
            exchanged).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_STORE_DIR") or None
        if not directory:
            raise ValueError(
                "result store needs a directory: pass one explicitly or set "
                "REPRO_STORE_DIR")
        self.directory = directory

    # -- entry layout -----------------------------------------------------------
    def entry_path(self, key: str, engine: str = ENGINE_VERSION) -> str:
        """Path of one entry: ``<store>/<engine>/<key[:2]>/<key>.json``."""
        return os.path.join(self.directory, engine, key[:2], f"{key}.json")

    def engines(self) -> List[str]:
        """Engine revisions present in the store (sorted).

        Only subdirectories with the store's bucket layout count: a store
        rooted in a shared directory (``REPRO_STORE_DIR=~/results`` next to
        the user's own folders) must have its foreign siblings invisible to
        every operation — ``verify`` must not flag them corrupt, ``export``
        must not trip over them, ``gc`` must never delete them.
        """
        try:
            children = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(entry for entry in children
                      if entry != QUARANTINE_DIR
                      and os.path.isdir(os.path.join(self.directory, entry))
                      and self._looks_like_engine_dir(entry))

    def _looks_like_engine_dir(self, engine: str) -> bool:
        """Whether a subdirectory has the store's bucket layout.

        Qualifies only when it contains at least one two-hex-char bucket
        directory (the store never creates an engine dir without an entry,
        so empty dirs are foreign).  The any-bucket (rather than
        all-children) rule keeps an engine's entries visible to verify/gc
        even if a stray file lands at the engine root, while a foreign
        sibling folder (no bucket dirs) stays invisible to every operation.
        """
        root = os.path.join(self.directory, engine)
        try:
            children = os.listdir(root)
        except OSError:
            return False
        return any(
            re.fullmatch(r"[0-9a-f]{2}", child)
            and os.path.isdir(os.path.join(root, child))
            for child in children)

    def keys(self, engine: str = ENGINE_VERSION) -> List[str]:
        """Sorted cache keys stored under one engine revision."""
        found: List[str] = []
        root = os.path.join(self.directory, engine)
        try:
            buckets = sorted(os.listdir(root))
        except OSError:
            return []
        for bucket in buckets:
            bucket_dir = os.path.join(root, bucket)
            # Only two-hex-char bucket directories hold entries; the
            # ``manifests/`` index directory (or any stray file/folder at
            # the engine root) must stay invisible to keys/verify/export.
            if not re.fullmatch(r"[0-9a-f]{2}", bucket) \
                    or not os.path.isdir(bucket_dir):
                continue
            found.extend(sorted(
                name[:-len(".json")] for name in os.listdir(bucket_dir)
                if name.endswith(".json")))
        return found

    def __len__(self) -> int:
        return len(self.keys())

    # -- get / put --------------------------------------------------------------
    def _load_entry(self, path: str) -> Tuple[Optional[dict], Optional[str]]:
        """Read one entry file; returns ``(payload, problem)``.

        ``problem`` is ``"absent"`` for a missing file — an ordinary cache
        miss, which must never be quarantined — and a descriptive string for
        every way an existing file can be bad.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None, "absent"
        except OSError:
            return None, "unreadable"
        except ValueError:
            return None, "not valid JSON"
        if not isinstance(payload, dict):
            return None, "not a JSON object"
        if payload.get("schema") != STORE_SCHEMA:
            return None, f"unsupported entry schema {payload.get('schema')!r}"
        result = payload.get("result")
        if not isinstance(result, dict):
            return None, "missing result payload"
        if payload.get("sha256") != result_digest(result):
            return None, "digest mismatch (corrupt or hand-edited entry)"
        return payload, None

    @property
    def quarantine_dir(self) -> str:
        """Directory corrupt entries are moved into (``<store>/quarantine``)."""
        return os.path.join(self.directory, QUARANTINE_DIR)

    def _quarantine(self, path: str, problem: str) -> Optional[str]:
        """Move one bad entry into quarantine (best-effort; never raises).

        The entry keeps its engine/bucket layout under the quarantine root,
        so a post-mortem knows exactly which key and revision it was filed
        under.  On a read-only store the move fails silently and the entry
        simply stays a miss.
        """
        relative = os.path.relpath(path, self.directory)
        target = os.path.join(self.quarantine_dir, relative)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(path, target)
        except OSError:
            logger.warning("store entry %s is %s (and could not be "
                           "quarantined); treating it as a miss",
                           relative, problem)
            return None
        logger.warning("quarantined store entry %s (%s); it will be "
                       "re-simulated", relative, problem)
        return target

    def quarantined(self) -> List[str]:
        """Relative paths of everything currently in quarantine (sorted)."""
        found: List[str] = []
        for root, _dirs, files in os.walk(self.quarantine_dir):
            for name in files:
                found.append(os.path.relpath(os.path.join(root, name),
                                             self.quarantine_dir))
        return sorted(found)

    def get(self, key: str, engine: str = ENGINE_VERSION) -> Optional[RunResult]:
        """Fetch one result, or ``None`` when absent *or* failing
        verification — a corrupt entry is quarantined and treated as a miss
        by consumers (so the case re-simulates), never replayed into
        figures."""
        path = self.entry_path(key, engine)
        payload, problem = self._load_entry(path)
        if payload is None or problem is not None:
            if problem != "absent":
                self._quarantine(path, problem or "unreadable")
            return None
        if payload.get("key") != key or payload.get("engine") != engine:
            self._quarantine(
                path, f"mis-filed (claims key "
                      f"{str(payload.get('key'))[:12]}…, engine "
                      f"{payload.get('engine')!r})")
            return None
        try:
            return run_result_from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, "result does not parse as a RunResult")
            return None

    def _write_marker(self) -> None:
        path = os.path.join(self.directory, STORE_MARKER)
        if not os.path.exists(path):
            os.makedirs(self.directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"schema": STORE_SCHEMA,
                           "kind": "repro-result-store"}, handle)
                handle.write("\n")

    def _write(self, key: str, data: dict, engine: str = ENGINE_VERSION,
               digest: Optional[str] = None) -> None:
        self._write_marker()
        path = self.entry_path(key, engine)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(path, {
            "schema": STORE_SCHEMA,
            "engine": engine,
            "key": key,
            "sha256": digest if digest is not None else result_digest(data),
            "result": data,
        })

    def put(self, key: str, result: RunResult) -> None:
        """Store one finished result under the current engine version.

        A valid identical entry already present under the key is left
        untouched (warm-cache runs re-publish every disk hit; skipping the
        rewrite turns those into one read each), an absent entry is written,
        a corrupt or mis-filed one is quarantined and replaced (publication
        heals bit-rot while preserving the damaged bytes) — and a valid
        entry with a *different* digest raises: the key is
        content-addressed, so two results under one key is the determinism
        violation :meth:`ingest` also refuses, caught here at publication
        time instead of on some other machine later.
        """
        data = run_result_to_dict(result)
        digest = result_digest(data)
        path = self.entry_path(key)
        existing, problem = self._load_entry(path)
        if existing is not None and problem is None:
            if existing.get("key") == key:
                if existing.get("sha256") == digest:
                    return
                raise ValueError(
                    f"case {key[:12]}… is already stored with a different "
                    "result digest; the engine version should have changed, "
                    "or one side is a nondeterministic build")
            self._quarantine(
                path, f"mis-filed (claims key "
                      f"{str(existing.get('key'))[:12]}…)")
        elif problem not in (None, "absent"):
            self._quarantine(path, problem)
        self._write(key, data, digest=digest)

    # -- manifest indexes -------------------------------------------------------
    @staticmethod
    def normalize_manifest_hash(value: str,
                                engine: str = ENGINE_VERSION) -> str:
        """Accept both the bare 64-hex digest and the ``engine:hash``
        spelling that ``repro plan --hash`` prints.

        Raises:
            ValueError: a prefix naming a *different* engine (other engine
                revisions are never replayed into current figures, so
                scoping by their manifests is a mistake worth naming), or a
                remainder that is not a SHA-256 digest.
        """
        raw = str(value).strip()
        prefix, sep, rest = raw.rpartition(":")
        if sep:
            if prefix != engine:
                raise ValueError(
                    f"manifest hash {raw[:80]!r} names engine {prefix!r}, "
                    f"but this store operates on engine {engine!r}")
            raw = rest
        if not _KEY_RE.fullmatch(raw):
            raise ValueError(
                f"manifest hash {raw[:40]!r} is not a SHA-256 digest; pass "
                "the 64-hex digest, or the engine:hash line "
                "'repro plan --hash' prints")
        return raw

    def manifest_index_path(self, manifest_hash: str,
                            engine: str = ENGINE_VERSION) -> str:
        """Path of one manifest index
        (``<store>/<engine>/manifests/<hash>.json``)."""
        return os.path.join(self.directory, engine, MANIFESTS_DIR,
                            f"{manifest_hash}.json")

    def register_manifest(self, manifest_hash: str, keys: List[str],
                          engine: str = ENGINE_VERSION) -> str:
        """Record which cache keys a manifest owns, for scoped gc/export.

        Idempotent: re-registering the same hash with the same key set is a
        no-op.  The manifest hash covers the case set, so a same-hash
        registration with a *different* key set is the same determinism
        violation :meth:`put` refuses for entries.

        Returns:
            The index path.
        """
        if not _KEY_RE.fullmatch(manifest_hash):
            raise ValueError(
                f"manifest hash {manifest_hash[:40]!r} is not a SHA-256 "
                "digest; refusing to build a store path from it")
        keys = sorted(set(keys))
        for key in keys:
            if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
                raise ValueError(
                    f"manifest {manifest_hash[:12]}…: case key "
                    f"{str(key)[:40]!r} is not a SHA-256 cache key")
        path = self.manifest_index_path(manifest_hash, engine)
        payload = {
            "schema": MANIFEST_SCHEMA,
            "kind": "manifest-index",
            "engine": engine,
            "manifest_hash": manifest_hash,
            "cases": keys,
        }
        existing = self._load_manifest_index(path)
        if existing is not None:
            if existing.get("cases") == keys:
                return path
            raise ValueError(
                f"manifest {manifest_hash[:12]}… is already registered with "
                "a different case set; the hash covers the cases, so one "
                "side was planned by an inconsistent build")
        self._write_marker()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(path, payload)
        return path

    def _load_manifest_index(self, path: str) -> Optional[dict]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            raise ValueError(
                f"manifest index {path} is unreadable or not valid JSON; "
                "delete it and re-register the manifest") from None
        if not isinstance(payload, dict) \
                or payload.get("kind") != "manifest-index" \
                or payload.get("schema") != MANIFEST_SCHEMA \
                or not isinstance(payload.get("cases"), list):
            raise ValueError(
                f"manifest index {path} is ill-formed; delete it and "
                "re-register the manifest")
        return payload

    def manifests(self, engine: str = ENGINE_VERSION) -> List[str]:
        """Sorted manifest hashes registered under one engine revision."""
        root = os.path.join(self.directory, engine, MANIFESTS_DIR)
        try:
            names = os.listdir(root)
        except OSError:
            return []
        return sorted(name[:-len(".json")] for name in names
                      if name.endswith(".json")
                      and _KEY_RE.fullmatch(name[:-len(".json")]))

    def manifest_keys(self, manifest_hash: str,
                      engine: str = ENGINE_VERSION) -> List[str]:
        """The sorted case keys a registered manifest owns.

        Raises:
            ValueError: unregistered hash (naming what *is* registered) or a
                corrupt index file.
        """
        manifest_hash = self.normalize_manifest_hash(manifest_hash, engine)
        payload = self._load_manifest_index(
            self.manifest_index_path(manifest_hash, engine))
        if payload is None:
            known = self.manifests(engine)
            listing = ", ".join(h[:12] + "…" for h in known) or "(none)"
            raise ValueError(
                f"manifest {manifest_hash[:12]}… is not registered in "
                f"{self.directory} for engine {engine}; registered: "
                f"{listing}. A manifest registers when 'repro run all' or a "
                "service job completes against this store")
        return [key for key in payload["cases"] if isinstance(key, str)]

    def _manifest_union(self, manifest_hashes: List[str],
                        engine: str = ENGINE_VERSION) -> set:
        keep = set()
        for manifest_hash in manifest_hashes:
            keep.update(self.manifest_keys(manifest_hash, engine))
        return keep

    # -- exchange ---------------------------------------------------------------
    def ingest_url(self, url: str) -> Tuple[int, int]:
        """Federate: ingest a remote store export by URL.

        A remote service's ``/v1/store/export`` payload passes exactly the
        digest-verified checks :meth:`ingest` applies to a local export.

        Returns:
            ``(added, skipped)`` entry counts.

        Raises:
            ValueError: non-HTTP(S) URL, download failure, or any
                :meth:`ingest` rejection.
        """
        import urllib.error
        import urllib.request

        scheme = url.split(":", 1)[0].lower()
        if scheme not in ("http", "https"):
            raise ValueError(
                f"store ingest URLs must be http(s), got {url!r}")
        try:
            with urllib.request.urlopen(url, timeout=60.0) as response:
                payload = json.load(response)
        except (urllib.error.URLError, OSError) as exc:
            raise ValueError(f"{url}: download failed ({exc})") from None
        except ValueError:
            raise ValueError(f"{url}: not valid JSON") from None
        return self._ingest_export(url, payload)

    def ingest(self, path: str) -> Tuple[int, int]:
        """Import every case result from a ``repro store export`` file.

        The store export is the one exchange format; a shard artifact is a
        receipt without results and is refused.  Entries already present
        with an identical digest are skipped; a same-key entry with a
        *different* digest is a determinism violation (the key is
        content-addressed) and aborts the ingest.

        Returns:
            ``(added, skipped)`` entry counts.

        Raises:
            ValueError: unreadable file, not a store export, engine
                mismatch, a case payload that does not parse as a RunResult,
                or a digest conflict with an existing entry.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except ValueError:
            raise ValueError(f"{path}: not valid JSON") from None
        return self._ingest_export(path, payload)

    def _ingest_export(self, path: str, payload: object) -> Tuple[int, int]:
        if not isinstance(payload, dict) \
                or payload.get("kind") != "store-export" \
                or not isinstance(payload.get("cases"), dict) \
                or "engine" not in payload:
            raise ValueError(
                f"{path}: not a store export (shard artifacts are receipts "
                "without results); write one with 'repro store export'")
        if payload.get("schema") != STORE_SCHEMA:
            raise ValueError(
                f"{path}: unsupported store-export schema "
                f"{payload.get('schema')!r} (this build reads "
                f"{STORE_SCHEMA}); was it produced by an incompatible "
                "revision?")
        engine = payload["engine"]
        if engine != ENGINE_VERSION:
            raise ValueError(
                f"{path}: produced by engine {engine!r}, this build is "
                f"{ENGINE_VERSION!r}; cross-engine results are never "
                "ingested (gc stale engines instead of mixing them)")
        added = 0
        skipped = 0
        for key in sorted(payload["cases"]):
            if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
                raise ValueError(
                    f"{path}: case key {str(key)[:40]!r} is not a SHA-256 "
                    "cache key; refusing to build a store path from it")
            data = payload["cases"][key]
            try:
                run_result_from_dict(data)
            except (KeyError, TypeError, ValueError, AttributeError):
                raise ValueError(
                    f"{path}: case {key[:12]}… does not parse as a "
                    "RunResult; refusing to ingest a corrupt export"
                ) from None
            digest = result_digest(data)
            entry_path = self.entry_path(key)
            existing, problem = self._load_entry(entry_path)
            if existing is not None and problem is None:
                if existing.get("sha256") == digest:
                    skipped += 1
                    continue
                raise ValueError(
                    f"{path}: case {key[:12]}… conflicts with the stored "
                    "entry (same key, different result digest); the engine "
                    "version should have changed, or one side is corrupt")
            if problem not in (None, "absent"):
                self._quarantine(entry_path, problem)
            self._write(key, data, digest=digest)
            added += 1
        return added, skipped

    def export(self, path: str,
               manifest_hashes: Optional[List[str]] = None) -> Tuple[str, int]:
        """Write current-engine entries as one ``store-export`` payload.

        The payload maps each cache key to its result in ``cases``; it is
        the one format :meth:`ingest` reads, locally or by URL.  Corrupt
        entries fail the export loudly (run :meth:`verify` / ``gc``) rather
        than silently exporting damaged results.

        Args:
            path: output artifact path.
            manifest_hashes: when given, export only entries owned by these
                registered manifests (their key union) — the exchange unit
                stays the size of the work being exchanged instead of the
                whole corpus.  Unregistered hashes raise.

        Returns:
            ``(path, entry count)``.
        """
        keys = self.keys()
        if manifest_hashes:
            keep = self._manifest_union(list(manifest_hashes))
            keys = [key for key in keys if key in keep]
        cases: Dict[str, dict] = {}
        for key in keys:
            payload, problem = self._load_entry(self.entry_path(key))
            if payload is None or problem is not None:
                raise ValueError(
                    f"store entry {key[:12]}… is {problem}; run "
                    "'repro store verify' and gc before exporting")
            if payload.get("key") != key or \
                    payload.get("engine") != ENGINE_VERSION:
                # An internally-consistent entry filed under the wrong
                # key/engine (bad sync, manual copy) would otherwise export
                # — and later replay — the wrong simulation for this key.
                raise ValueError(
                    f"store entry {key[:12]}… is mis-filed (claims key "
                    f"{str(payload.get('key'))[:12]}…, engine "
                    f"{payload.get('engine')!r}); run 'repro store verify'")
            cases[key] = payload["result"]
        artifact = {
            "schema": STORE_SCHEMA,
            "kind": "store-export",
            "engine": ENGINE_VERSION,
            "entries": len(cases),
            "cases": cases,
        }
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        atomic_write_json(path, artifact, trailing_newline=True)
        return path, len(cases)

    # -- maintenance ------------------------------------------------------------
    def gc(self, keep_engine: str = ENGINE_VERSION,
           manifest_hashes: Optional[List[str]] = None) -> int:
        """Delete every entry not belonging to ``keep_engine``.

        Args:
            keep_engine: entries of every *other* engine revision are
                removed (the store is engine-versioned precisely so results
                from a superseded simulation engine can never be replayed
                into current figures).
            manifest_hashes: when given, additionally prune ``keep_engine``
                entries owned by *none* of these registered manifests —
                superseded-manifest results — along with the superseded
                manifest indexes themselves.  Entries shared by a live
                manifest are retained.  Unregistered hashes raise before
                anything is deleted.

        Returns the number of entries removed.
        """
        if not os.path.exists(os.path.join(self.directory, STORE_MARKER)):
            try:
                empty = not os.listdir(self.directory)
            except OSError:
                empty = True
            if empty:
                return 0  # nothing here yet: a clean no-op, not an error
            raise ValueError(
                f"{self.directory} does not look like a result store "
                f"(missing {STORE_MARKER}); refusing to delete its "
                "subdirectories")
        live = set()
        keep_keys = None
        if manifest_hashes:
            live = {self.normalize_manifest_hash(h, keep_engine)
                    for h in manifest_hashes}
            keep_keys = self._manifest_union(sorted(live), keep_engine)
        removed = 0
        for engine in self.engines():
            if engine == keep_engine:
                continue
            count = len(self.keys(engine))
            if count == 0:
                # Nothing of ours inside: an empty directory also satisfies
                # the engine-layout check, so deleting it could take out a
                # foreign (empty) folder in a shared store root.
                continue
            removed += count
            shutil.rmtree(os.path.join(self.directory, engine))
        if keep_keys is None:
            return removed
        for key in self.keys(keep_engine):
            if key in keep_keys:
                continue
            path = self.entry_path(key, keep_engine)
            try:
                os.remove(path)
                removed += 1
            except OSError:
                continue
            bucket_dir = os.path.dirname(path)
            try:
                os.rmdir(bucket_dir)  # reclaim now-empty buckets
            except OSError:
                pass
        for manifest_hash in self.manifests(keep_engine):
            if manifest_hash not in live:
                try:
                    os.remove(self.manifest_index_path(manifest_hash,
                                                       keep_engine))
                except OSError:
                    pass
        return removed

    def sweep_tmp(self) -> List[str]:
        """Remove orphaned ``*.tmp.<pid>`` files left by killed writers.

        Every atomic write stages through such a file; a process killed
        between staging and rename leaks one.  Only files whose writer pid
        is gone are removed, so a concurrently-running shard's in-flight
        writes are safe.  Returns the removed paths.
        """
        if not os.path.isdir(self.directory):
            return []
        return sweep_tmp_files(self.directory)

    def verify(self) -> dict:
        """Audit every entry in the store (all engine revisions).

        Returns:
            A report dictionary: ``entries`` (total scanned), ``engines``
            (per-revision entry counts), ``corrupt`` — a list of
            ``(relative path, problem)`` pairs for entries that are
            unreadable, fail their digest, or are filed under the wrong
            key/engine — and ``quarantined``, the number of previously
            quarantined files awaiting a post-mortem.  Verify is a read-only
            audit: it reports corrupt entries but moves nothing (the serving
            paths — ``get``/``put``/``ingest`` — quarantine on contact).
        """
        engines: Dict[str, int] = {}
        corrupt: List[Tuple[str, str]] = []
        total = 0
        for engine in self.engines():
            engines[engine] = 0
            for key in self.keys(engine):
                total += 1
                engines[engine] += 1
                path = self.entry_path(key, engine)
                relative = os.path.relpath(path, self.directory)
                payload, problem = self._load_entry(path)
                if problem is not None:
                    corrupt.append((relative, problem))
                    continue
                if payload.get("key") != key:
                    corrupt.append((relative,
                                    f"filed under key {key[:12]}… but claims "
                                    f"{str(payload.get('key'))[:12]}…"))
                elif payload.get("engine") != engine:
                    corrupt.append((relative,
                                    f"filed under engine {engine} but claims "
                                    f"{payload.get('engine')!r}"))
        return {"directory": self.directory, "entries": total,
                "engines": engines, "corrupt": corrupt,
                "quarantined": len(self.quarantined())}
