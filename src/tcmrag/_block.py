"""The framing vectors.bin, keywords.bin and chunks.bin share: a little-endian header of a
12-byte magic, a uint32 version and the format's own fields, then the parts those fields
size, end to end; a file is exactly as long as its header says."""
from __future__ import annotations

import json
import operator
import os
import struct
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class BlockFormat:
    magic: bytes  # 12 bytes
    version: int
    fields: str  # the struct codes of the header fields after the version
    noun: str  # as in "not a vector index file"
    last_part: str  # as in "trailing bytes after the vectors"
    error: type[Exception]  # what every refusal raises

    def write(self, path: str | Path, fields: tuple, *parts) -> None:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<12sI" + self.fields, self.magic, self.version, *fields))
            fh.writelines(parts)

    def read_header(self, fh, path: str | Path, body_size) -> tuple:
        """The header fields after the version, read from the start of `fh`; raises `error`
        unless the file has this magic and version and is exactly as long as the header
        plus `body_size(*fields)` bytes."""
        header = struct.Struct("<12sI" + self.fields)
        head = fh.read(header.size)
        if head[:12] != self.magic:
            raise self.error(f"{path}: not a {self.noun} file")
        if len(head) < header.size:
            raise self.error(f"{path}: truncated {self.noun} file")
        _, version, *fields = header.unpack(head)
        if version != self.version:
            raise self.error(f"{path}: unsupported version {version}")
        size, expected = os.fstat(fh.fileno()).st_size, header.size + body_size(*fields)
        if size != expected:
            raise self.error(f"{path}: truncated {self.noun} file" if size < expected
                             else f"{path}: trailing bytes after the {self.last_part}")
        return tuple(fields)

    def read_into(self, fh, path: str | Path, buffer):
        """`buffer`, filled from `fh`; raises `error` if the file shrank since it was measured."""
        if fh.readinto(buffer) != memoryview(buffer).nbytes:
            raise self.error(f"{path}: truncated {self.noun} file")
        return buffer

    def text_part(self, fh, path: str | Path, size: int, what: str, kind: str = ""):
        """The next `size` bytes of `fh` as UTF-8 text or, given the `kind` of JSON it must
        be, as the value of that JSON text; `what` names the part with its verb."""
        data = self.read_into(fh, path, bytearray(size))
        try:
            text = data.decode("utf-8")
            return json.loads(text) if kind else text
        except UnicodeDecodeError as exc:
            raise self.error(f"{path}: {what} not UTF-8: {exc}") from exc
        except ValueError as exc:
            raise self.error(f"{path}: {what} not {kind}: {exc}") from exc

    def sorted_strings(self, fh, path: str | Path, size: int, what: str, count: int,
                       order: str = "sorted order") -> list[str]:
        """The next `size` bytes of `fh`, a UTF-8 JSON array of `count` distinct strings,
        ascending."""
        values = self.text_part(fh, path, size, f"{what} are", "a JSON array")
        if not (isinstance(values, list) and len(values) == count
                and set(map(type, values)) <= {str} and all(map(operator.lt, values, values[1:]))):
            raise self.error(f"{path}: {what} are not {count} distinct strings in {order}")
        return values
