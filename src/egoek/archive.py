"""Self-describing binary archive of ensemble spectra.

Layout: 8 magic bytes, a little-endian uint32 header length, the header as
UTF-8 JSON, then one fixed-size record per member (uint32 member index,
uint64 member seed, ``dimension`` little-endian float64 eigenvalues).  Writer
and reader both check that record i is member i with seed
``member_seed(master_seed, i)`` and that its levels are finite and ascending.
Writing the same data twice produces identical bytes.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import EnsembleSpec, member_seed
from .fock import dimension
from .spectra import Spectrum

MAGIC = b"EGOEARC1"
FORMAT_VERSION = "1"
_RECORD_HEAD = struct.Struct("<IQ")  # member index, member seed


class ArchiveFormatError(RuntimeError):
    """File is not a readable spectrum archive."""


@dataclass(frozen=True)
class SpectrumArchive:
    spec: EnsembleSpec
    records: tuple[Spectrum, ...]

    @property
    def dimension(self) -> int:
        return self.spec.dimension


def _header_dict(spec: EnsembleSpec) -> dict:
    return {
        **spec.to_dict(),
        "format_version": FORMAT_VERSION,
        "dimension": spec.dimension,
        # Reruns must be byte-identical, so no wall-clock value is recorded.
        "created_at": None,
    }


def _ascending_finite(levels: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(levels)) and np.all(levels[1:] >= levels[:-1]))


def _check_label(spec: EnsembleSpec, i: int, member, seed, error=ValueError) -> None:
    """Raise ``error`` unless record i is member i with seed ``member_seed(master_seed, i)``."""
    expected = member_seed(spec.master_seed, i)
    if (member, seed) != (i, expected):
        raise error(f"record {i} is labelled member {member!r}, seed {seed!r}; the header "
                    f"implies member {i}, seed {expected}")


def write_archive(path: str | Path, archive: SpectrumArchive) -> None:
    """Write ``archive``; every record is checked (ValueError) before the file is opened."""
    spec = archive.spec
    if len(archive.records) != spec.members:
        raise ValueError("record count does not match member count")
    for i, r in enumerate(archive.records):
        _check_label(spec, i, r.member, r.seed)
        if np.shape(r.eigenvalues) != (spec.dimension,):
            raise ValueError(f"member {i}: expected {spec.dimension} eigenvalues")
        if not _ascending_finite(np.asarray(r.eigenvalues)):
            raise ValueError(f"member {i}: levels must be finite and ascending")
    header = json.dumps(_header_dict(spec), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for i, record in enumerate(archive.records):
            fh.write(_RECORD_HEAD.pack(i, member_seed(spec.master_seed, i)))
            fh.write(np.ascontiguousarray(record.eigenvalues, dtype="<f8").tobytes())


def read_archive(path: str | Path) -> SpectrumArchive:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArchiveFormatError(f"{path}: bad magic {magic!r}")
        length_field = fh.read(4)
        if len(length_field) != 4:
            raise ArchiveFormatError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<I", length_field)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            spec = EnsembleSpec.from_dict(header)
            version = header["format_version"]
            claimed = header["dimension"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ArchiveFormatError(
                f"{path}: malformed header ({type(exc).__name__}: {exc})"
            ) from exc
        if version != FORMAT_VERSION:
            raise ArchiveFormatError(
                f"{path}: format_version must be {FORMAT_VERSION!r}, got {version!r}"
            )
        if type(claimed) is not int or claimed < 1:
            raise ArchiveFormatError(
                f"{path}: header dimension {claimed!r} is not a positive integer"
            )
        # Checked before any record is read, so a crafted header cannot make
        # the reader allocate more than the file holds.
        record_bytes = spec.members * (_RECORD_HEAD.size + 8 * claimed)
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available != record_bytes:
            raise ArchiveFormatError(
                f"{path}: {available} bytes of records where the header implies {record_bytes}"
            )
        # Past the size check the claimed dimension is bounded by the file
        # size, and the limited binomial stops once it exceeds that, so a
        # header with huge m and N costs about log2(dimension) steps.
        if dimension(spec.n_sites, spec.m, spec.statistics, limit=claimed) != claimed:
            raise ArchiveFormatError(f"{path}: header dimension {claimed} inconsistent with spec")
        records = []
        for i in range(spec.members):
            member, seed = _RECORD_HEAD.unpack(fh.read(_RECORD_HEAD.size))
            _check_label(spec, i, member, seed, lambda e: ArchiveFormatError(f"{path}: {e}"))
            eig = np.frombuffer(fh.read(8 * claimed), dtype="<f8").copy()
            if not _ascending_finite(eig):
                raise ArchiveFormatError(f"{path}: member {member}: levels are not finite "
                                         "and ascending")
            records.append(Spectrum(eigenvalues=eig, member=member, seed=seed))
    return SpectrumArchive(spec=spec, records=tuple(records))


def export_json(archive: SpectrumArchive, path: str | Path) -> None:
    """Human-readable dump of an archive."""
    payload = {
        "header": _header_dict(archive.spec),
        "members": [
            {
                "member": r.member,
                "seed": r.seed,
                "eigenvalues": [float(v) for v in r.eigenvalues],
            }
            for r in archive.records
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2))
