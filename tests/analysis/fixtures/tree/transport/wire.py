"""RL003/RL004 fixture: copies off the send boundary, codec drift."""


def encode_thing(value: bytes) -> bytes:
    return b"".join([b"\x01", value])   # exempt: encode_* is the boundary


def write_thing(out: list, value: bytes) -> None:
    out.append(b"\x01")
    out.append(value)


def decode_thing(buf, offset: int = 0):
    body = bytes(buf[offset:])                                  # RL003
    return body, len(buf)


def decode_quietly(buf, offset: int = 0):
    # repro-lint: ignore[RL003] fixture: deliberate escape copy
    body = bytes(buf[offset:])
    return body, len(buf)


def frame_pair(left: bytes, right: bytes) -> bytes:
    return b"".join((left, right))                              # RL003


def stamp_header(body: bytes) -> bytes:
    return b"\xa5" + body                                       # RL003


def grow(payload: bytes) -> bytes:
    total = b""
    total += encode_thing(payload)                              # RL003
    return total


def write_orphan(out: list, value: int) -> None:                # RL004
    out.append(value.to_bytes(4, "big"))


def write_stray(out: list, flag: bool) -> None:                 # RL004
    out.append(b"\x01" if flag else b"\x00")


def chunk_constants() -> bytes:
    return bytes((1, 2, 3))             # exempt: constant construction
