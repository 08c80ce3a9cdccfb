"""Append-only JSONL checkpoints for gauntlet grids.

A long (attack × strength × model) sweep is the paper's central evidence,
and before this module a crashed or evicted 10k-cell grid recomputed from
zero.  :class:`CellCheckpoint` makes sweeps resumable: one JSON line per
*completed* cell, appended as the cell finishes and fsynced in small
batches, headed by a **grid fingerprint** so a checkpoint can never be
replayed against a different grid.

The decision-digest guarantee survives the disk round trip because a
:class:`~repro.robustness.report.GauntletCellResult` is made of JSON-exact
scalars (floats, ints, bools, ``None`` and strings all round-trip
bit-identically through ``json``), and because the gauntlet always
reassembles the report in grid order — replayed cells slot back into the
same positions they were computed in, so
``RobustnessReport.decision_digest()`` of a resumed run equals the
uninterrupted run's byte for byte.

Both consumers share this module: ``repro gauntlet --resume <path>`` and
the verification server's job manager (``POST /v1/jobs/robustness``), whose
checkpoints are content-addressed by the same fingerprint so a restarted
server resumes a killed job from its own file.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.robustness.report import GauntletCellResult
from repro.utils.logging import get_logger

__all__ = [
    "CheckpointError",
    "CellCheckpoint",
    "grid_fingerprint",
    "merge_completed",
]

logger = get_logger("robustness.checkpoint")

#: Record-type tags of the JSONL stream.
_HEADER_KIND = "gauntlet-checkpoint"
_CELL_KIND = "cell"

#: Format version written into every header; bumped on incompatible layout
#: changes so an old file fails loudly instead of replaying garbage.
_FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file cannot be used for the requested grid."""


def grid_fingerprint(
    subject_ids: Sequence[str],
    attack_strengths: Mapping[str, Sequence[float]],
    seed: int,
    wer_threshold: float,
    max_false_claim_probability: Optional[float],
    evaluate_quality: bool,
    extra: Optional[Mapping[str, object]] = None,
) -> str:
    """Deterministic identity of one gauntlet grid + decision parameters.

    Two runs that would produce different decision digests must fingerprint
    differently, so everything the digest depends on is folded in: the
    subject ids, the (attack → strengths) grid, the RNG seed and the
    ownership thresholds.  ``extra`` lets callers bind additional identity
    (the server includes the suspect's content id, so re-uploading a
    *different* model under the same suspect id cannot resume a stale
    checkpoint).  Worker counts, execution modes and telemetry are absent by
    design — they never change decisions.
    """
    payload = {
        "subjects": list(subject_ids),
        "attacks": {
            name: [float(s) for s in sweep]
            for name, sweep in sorted(attack_strengths.items())
        },
        "seed": int(seed),
        "wer_threshold": float(wer_threshold),
        "max_false_claim_probability": (
            None
            if max_false_claim_probability is None
            else float(max_false_claim_probability)
        ),
        "evaluate_quality": bool(evaluate_quality),
        "extra": dict(extra or {}),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CellCheckpoint:
    """Append-only JSONL store of completed gauntlet cells.

    Layout: a header line ``{"kind": "gauntlet-checkpoint", "version": 1,
    "fingerprint": ...}`` followed by one ``{"kind": "cell", "cell": {...}}``
    line per completed cell.  Appends are buffered and fsynced every
    ``fsync_every`` cells (and on :meth:`flush`/:meth:`close`), so a crash
    loses at most the last unsynced batch — never corrupts earlier lines.
    A torn final line (the crash landed mid-write) is tolerated on load and
    simply recomputed.

    Thread-safe, so one checkpoint may be shared by concurrent writers.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: str,
        fsync_every: int = 8,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.fsync_every = int(fsync_every)
        self._lock = threading.Lock()
        self._handle = None
        self._unsynced = 0
        self._appended = 0

    # ------------------------------------------------------------------
    # Reading (resume)
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, GauntletCellResult]:
        """Completed cells recorded on disk, keyed by ``cell_id``.

        Returns an empty mapping when the file does not exist yet.  Raises
        :class:`CheckpointError` when the file belongs to a different grid
        (fingerprint mismatch) or is not a checkpoint at all — resuming the
        wrong file must fail loudly, never silently skip cells.
        """
        if not self.path.exists():
            return {}
        completed: Dict[str, GauntletCellResult] = {}
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return {}
        header = self._parse_line(lines[0], line_number=1)
        if header is None or header.get("kind") != _HEADER_KIND:
            raise CheckpointError(
                f"{self.path} is not a gauntlet checkpoint (bad header line)"
            )
        if header.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"{self.path} uses checkpoint format {header.get('version')!r}; "
                f"this build reads version {_FORMAT_VERSION}"
            )
        recorded = header.get("fingerprint")
        if recorded != self.fingerprint:
            raise CheckpointError(
                f"{self.path} was written for a different grid "
                f"(fingerprint {str(recorded)[:12]}… != {self.fingerprint[:12]}…); "
                "refusing to replay cells across grids"
            )
        for number, line in enumerate(lines[1:], start=2):
            record = self._parse_line(line, line_number=number)
            if record is None:
                # A torn tail line is the expected crash artifact; anything
                # torn *before* the end means later (well-formed) lines were
                # written after it, which append-only never produces.
                if number != len(lines):
                    raise CheckpointError(
                        f"{self.path}:{number}: corrupt record mid-file"
                    )
                logger.warning(
                    "%s: dropping torn final line %d (crash mid-write)",
                    self.path,
                    number,
                )
                break
            if record.get("kind") != _CELL_KIND or "cell" not in record:
                raise CheckpointError(
                    f"{self.path}:{number}: unexpected record kind "
                    f"{record.get('kind')!r}"
                )
            cell = GauntletCellResult.from_dict(record["cell"])
            completed[cell.cell_id] = cell
        return completed

    @staticmethod
    def _parse_line(line: str, line_number: int) -> Optional[dict]:
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            return None
        return parsed if isinstance(parsed, dict) else None

    # ------------------------------------------------------------------
    # Writing (append-only)
    # ------------------------------------------------------------------
    def append(self, cell: GauntletCellResult) -> None:
        """Record one completed cell (creates the file + header on first use)."""
        line = json.dumps(
            {"kind": _CELL_KIND, "cell": cell.to_dict()}, sort_keys=True
        )
        with self._lock:
            handle = self._open_locked()
            handle.write(line + "\n")
            self._appended += 1
            self._unsynced += 1
            if self._unsynced >= self.fsync_every:
                self._sync_locked()

    def flush(self) -> None:
        """Force the buffered tail to disk (fsync)."""
        with self._lock:
            if self._handle is not None:
                self._sync_locked()

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._sync_locked()
                self._handle.close()
                self._handle = None

    @property
    def appended(self) -> int:
        """Cells appended through this writer instance."""
        with self._lock:
            return self._appended

    def _open_locked(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                header = json.dumps(
                    {
                        "kind": _HEADER_KIND,
                        "version": _FORMAT_VERSION,
                        "fingerprint": self.fingerprint,
                    },
                    sort_keys=True,
                )
                self._handle.write(header + "\n")
                self._sync_locked()
        return self._handle

    def _sync_locked(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = 0

    def __enter__(self) -> "CellCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def merge_completed(
    ordered_cell_ids: Iterable[str],
    completed: Mapping[str, GauntletCellResult],
    fresh: Mapping[str, GauntletCellResult],
) -> Tuple[list, int]:
    """Reassemble a grid-ordered cell list from replayed + fresh results.

    Returns ``(cells, replayed)`` where ``cells`` follows
    ``ordered_cell_ids`` exactly — the ordering half of the resumed ≡
    uninterrupted digest guarantee (the other half is JSON round-trip
    exactness, see the module docstring).
    """
    cells = []
    replayed = 0
    for cell_id in ordered_cell_ids:
        if cell_id in fresh:
            cells.append(fresh[cell_id])
        elif cell_id in completed:
            cells.append(completed[cell_id])
            replayed += 1
    return cells, replayed
