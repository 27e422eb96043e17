"""Offline verification and repair of a service data directory.

:func:`scrub_directory` is the recovery tool behind ``repro scrub``: it
walks a :class:`~repro.service.core_service.CoreService` data directory
while the service is *down*, verifies every checksum the on-disk format
carries (manifest ``crc32``, checkpoint payload CRC, delta CRC, every
journal record CRC), and repairs what can be repaired without losing
acknowledged state:

* stray ``.tmp`` files from a crashed checkpoint or rotation are
  removed;
* a damaged or missing ``manifest.json`` is restored from the newest
  intact epoch-stamped duplicate (``manifest.<epoch>.json``) whose
  checkpoint artifacts still verify;
* a torn tail of the *active* journal segment (the crash-mid-append
  signature) is truncated back to the last complete batch -- exactly
  the repair the journal itself performs on open, done here explicitly
  and reported;
* a damaged *sealed* segment whose events are all covered by the
  checkpoint watermark is unlinked together with every earlier segment
  (their events are accounted for by the checkpoint; removing a middle
  segment alone would break the base-offset chain).

Damage that cannot be repaired without dropping acknowledged events --
checksum corruption inside the active segment ahead of complete
batches, or a damaged sealed segment the watermark does not cover --
is *lossy*: it is only repaired under ``force=True`` (truncation at
the damage point), and always itemized in the report either way.

The report is a plain dict (JSON-ready for ``repro scrub --json``):
``openable`` is the storage-side verdict of whether
:meth:`CoreService.open` would get past every consistency check, with
``issues`` (location-bearing, one per problem found) and ``actions``
(one per repair performed).

Scrub does not parse the on-disk formats itself.  It reads the
manifest through :func:`~repro.service.core_service.load_manifest`,
lists and scans journal files through the journal's own
:func:`~repro.service.journal.list_segments` and
:func:`~repro.service.journal.scan_segment`, checks the watermark with
``open()``'s :func:`~repro.service.core_service.check_watermark`, and
rewrites segment headers with
:func:`~repro.service.journal.write_segment_header`.  What it adds is
the repair policy.
"""

from __future__ import annotations

import os
import shutil

from repro.storage.state import load_checkpoint
from repro.errors import CorruptStorageError
from repro.service.core_service import (
    MANIFEST_COPY_RE,
    MANIFEST_NAME,
    check_watermark,
    load_manifest,
    read_delta_file,
)
from repro.service.journal import (
    fsync_path,
    list_segments,
    scan_segment,
    write_segment_header,
)

__all__ = ["scrub_directory"]


# ----------------------------------------------------------------------
# read-only diagnosis
# ----------------------------------------------------------------------

def _manifest_copies(data_dir):
    """Epoch-stamped manifest duplicates, newest epoch first."""
    copies = []
    for name in os.listdir(data_dir):
        match = MANIFEST_COPY_RE.match(name)
        if match:
            copies.append((int(match.group(1)),
                           os.path.join(data_dir, name)))
    return sorted(copies, reverse=True)


def _check_artifacts(data_dir, manifest, issues):
    """Verify the checkpoint artifacts a manifest points at.

    Appends location-bearing issues; returns True when the state file
    and the delta file pass their checksums.
    """
    ok = True
    try:
        load_checkpoint(os.path.join(data_dir, manifest["checkpoint"]))
    except FileNotFoundError:
        issues.append({"file": manifest["checkpoint"],
                       "problem": "checkpoint file is missing"})
        ok = False
    except CorruptStorageError as exc:
        issues.append(_issue_from(exc))
        ok = False
    try:
        read_delta_file(os.path.join(data_dir, manifest["delta"]))
    except CorruptStorageError as exc:
        issues.append(_issue_from(exc))
        ok = False
    return ok


def _issue_from(exc):
    issue = {"file": os.path.basename(exc.path), "problem": str(exc)}
    if exc.segment is not None:
        issue["segment"] = exc.segment
    if exc.offset is not None:
        issue["offset"] = exc.offset
    return issue


def _diagnose(data_dir):
    """One read-only walk: manifest, artifacts, segments, verdict."""
    state = {"issues": [], "manifest": None, "segments": [],
             "openable": False, "tmp_strays": []}
    issues = state["issues"]
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    try:
        manifest = load_manifest(manifest_path)
    except FileNotFoundError:
        manifest = None
        issues.append({"file": MANIFEST_NAME,
                       "problem": "manifest is missing"})
    except CorruptStorageError as exc:
        manifest = None
        issues.append(_issue_from(exc))
    artifacts_ok = False
    if manifest is not None:
        state["manifest"] = manifest
        artifacts_ok = _check_artifacts(data_dir, manifest, issues)

    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".tmp"):
            state["tmp_strays"].append(name)

    segments = [scan_segment(path, seq)
                for seq, path in list_segments(data_dir)]
    state["segments"] = segments
    journal_ok = True
    previous_end = None
    for index, info in enumerate(segments):
        is_active = index == len(segments) - 1
        if info["damage"] is not None:
            journal_ok = False
            issue = {"file": info["name"], "segment": info["seq"],
                     "offset": info["damage"]["offset"],
                     "problem": info["damage"]["problem"]
                                + ("" if is_active
                                   else " (sealed segment)")}
            issues.append(issue)
            previous_end = None
            continue
        if info["base"] is None:
            # 0-byte file: legitimate only as the active segment.
            if not is_active:
                journal_ok = False
                issues.append({"file": info["name"],
                               "segment": info["seq"],
                               "problem": "sealed segment is empty"})
            previous_end = None
            continue
        if previous_end is not None and info["base"] != previous_end:
            journal_ok = False
            issues.append({"file": info["name"], "segment": info["seq"],
                           "problem": "segment starts at event %d but "
                                      "its predecessor ends at %d"
                                      % (info["base"], previous_end)})
        previous_end = info["base"] + info["events"]

    if manifest is not None and artifacts_ok and journal_ok:
        # The journal's view after open(): an empty active segment
        # continues its predecessor, and no segment files at all make a
        # fresh, empty journal.
        intact = [s for s in segments if s["base"] is not None]
        total = (intact[-1]["base"] + intact[-1]["events"]
                 if intact else 0)
        first = intact[0]["base"] if intact else 0
        try:
            check_watermark(manifest_path, manifest, total, first)
        except CorruptStorageError as exc:
            issues.append(_issue_from(exc))
        else:
            state["openable"] = True
    return state


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------

def _active_base(segments, index, manifest, watermark):
    """Best-evidence base offset for an active segment whose own header
    is unreadable: the predecessor's end, the manifest's journal
    clause, or the checkpoint watermark (every checkpoint rotates, so a
    tail-less active segment starts at the watermark).  Returns None
    when no source is available."""
    info = segments[index]
    if index > 0:
        prev = segments[index - 1]
        if prev["damage"] is None and prev["base"] is not None:
            return prev["base"] + prev["events"]
    clause = (manifest or {}).get("journal") or {}
    for entry in clause.get("segments") or []:
        if entry.get("seq") == info["seq"] \
                and entry.get("base_events") is not None:
            return int(entry["base_events"])
    return watermark


def _repair(data_dir, diagnosis, actions, *, force):
    """Apply every repair the diagnosis justifies, recording actions."""
    for name in diagnosis["tmp_strays"]:
        os.unlink(os.path.join(data_dir, name))
        actions.append("removed stray temp file %s" % name)

    manifest = diagnosis["manifest"]
    manifest_ok = (manifest is not None
                   and not any(issue["file"] == MANIFEST_NAME
                               or issue["file"] == manifest["checkpoint"]
                               or issue["file"] == manifest["delta"]
                               for issue in diagnosis["issues"]))
    if not manifest_ok:
        for epoch, copy_path in _manifest_copies(data_dir):
            try:
                candidate = load_manifest(copy_path)
            except (FileNotFoundError, CorruptStorageError):
                continue
            if not _check_artifacts(data_dir, candidate, []):
                continue
            target = os.path.join(data_dir, MANIFEST_NAME)
            shutil.copyfile(copy_path, target + ".tmp")
            fsync_path(target + ".tmp")
            os.replace(target + ".tmp", target)
            fsync_path(data_dir)
            manifest = candidate
            actions.append("restored %s from %s (epoch %d)"
                           % (MANIFEST_NAME, os.path.basename(copy_path),
                              epoch))
            break

    watermark = (int(manifest["events_applied"])
                 if manifest is not None else None)
    segments = diagnosis["segments"]
    for index, info in enumerate(segments):
        if info["damage"] is None:
            continue
        is_active = index == len(segments) - 1
        damage = info["damage"]
        if is_active:
            lossy = not damage["torn"]
            if lossy and not force:
                actions.append(
                    "left %s unrepaired: truncating at byte %d would "
                    "drop acknowledged events (pass force to allow)"
                    % (info["name"], damage["offset"]))
                continue
            if info["good_pos"] == 0:
                # The damage is inside the header itself: truncating
                # would erase the segment's base offset and break the
                # watermark check.  Rebuild an empty header instead.
                base = _active_base(segments, index, manifest, watermark)
                if base is None:
                    actions.append(
                        "left %s unrepaired: cannot determine the "
                        "segment's base offset to rebuild its header"
                        % info["name"])
                    continue
                with open(info["path"], "r+b") as handle:
                    write_segment_header(handle, info["seq"], base)
                fsync_path(data_dir)
                actions.append(
                    "rebuilt %s header (empty active segment at "
                    "event %d)" % (info["name"], base))
                continue
            with open(info["path"], "r+b") as handle:
                handle.truncate(info["good_pos"])
                handle.flush()
                os.fsync(handle.fileno())
            actions.append(
                "truncated %s %s tail at byte %d (kept %d events)"
                % (info["name"], "torn" if damage["torn"] else "corrupt",
                   info["good_pos"], info["events"]))
            continue
        # Sealed segment.  Removable only when the watermark covers it
        # entirely -- proven by the successor's base offset -- and then
        # only together with every earlier segment (a gap would break
        # the base-offset chain).
        successor = segments[index + 1] if index + 1 < len(segments) \
            else None
        covered = (watermark is not None and successor is not None
                   and successor["base"] is not None
                   and successor["base"] <= watermark)
        if covered:
            for earlier in segments[:index + 1]:
                if os.path.exists(earlier["path"]):
                    os.unlink(earlier["path"])
                    actions.append(
                        "unlinked %s (events covered by the checkpoint "
                        "watermark %d)" % (earlier["name"], watermark))
            fsync_path(data_dir)
        elif (force and watermark is not None
              and info["base"] is not None
              and info["base"] >= watermark):
            # Lossy: everything from this segment's first event on is
            # dropped.  The checkpoint still covers the history up to
            # ``base`` (base >= watermark), so the directory reopens at
            # the watermark -- acknowledged events past ``base`` are
            # lost, which is exactly what force signs off on.
            for later in segments[index + 1:]:
                if os.path.exists(later["path"]):
                    os.unlink(later["path"])
                    actions.append("unlinked %s (past the truncation "
                                   "point)" % later["name"])
            with open(info["path"], "r+b") as handle:
                write_segment_header(handle, info["seq"], info["base"])
            fsync_path(data_dir)
            actions.append(
                "reset %s to an empty segment at event %d (dropped all "
                "events from %d on)"
                % (info["name"], info["base"], info["base"]))
            break
        else:
            actions.append(
                "left %s unrepaired: damaged sealed segment is not "
                "covered by the checkpoint watermark%s"
                % (info["name"],
                   "" if force else " (and force is not set)"))
    return actions


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def scrub_directory(data_dir, *, repair=True, force=False):
    """Verify (and by default repair) a service data directory.

    Returns the machine-readable report described in the module
    docstring.  With ``repair=False`` nothing on disk is touched -- the
    report is a pure diagnosis.  ``force=True`` additionally allows
    lossy repairs (truncating acknowledged events at a checksum-damage
    point in the active segment).
    """
    data_dir = os.fspath(data_dir)
    if not os.path.isdir(data_dir):
        return {"data_dir": data_dir, "openable": False,
                "repaired": False, "actions": [],
                "issues": [{"file": data_dir,
                            "problem": "not a directory"}],
                "manifest": None, "segments": []}
    diagnosis = _diagnose(data_dir)
    actions = []
    if repair and (not diagnosis["openable"] or diagnosis["tmp_strays"]):
        _repair(data_dir, diagnosis, actions, force=force)
        final = _diagnose(data_dir)
    else:
        final = diagnosis
    manifest = final["manifest"]
    report = {
        "data_dir": data_dir,
        "openable": final["openable"],
        "repaired": bool(actions),
        "actions": actions,
        # Issues of the *initial* walk: what the scrub found, whether
        # or not it could repair it.
        "issues": diagnosis["issues"],
        "remaining_issues": final["issues"] if actions else
                            diagnosis["issues"],
        "manifest": None if manifest is None else {
            key: manifest[key]
            for key in ("epoch", "events_applied", "version",
                        "checkpoint", "delta", "quarantined_batches")},
        "segments": [{"name": info["name"], "seq": info["seq"],
                      "base": info["base"], "events": info["events"],
                      "size": info["size"],
                      "damage": info["damage"]}
                     for info in final["segments"]],
    }
    return report
