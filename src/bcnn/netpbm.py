"""Binary netpbm image I/O: reads 8-bit grayscale P5 and color P6, writes P5.

Only maxval 255 is supported.  Header numbers are ASCII decimal digits,
and ``#`` comments may sit between tokens; exactly one whitespace byte
separates the maxval from the pixel payload.  Color images collapse to
grayscale with the integer luma (299 R + 587 G + 114 B + 500) // 1000.
"""

import numpy as np

from .errors import FormatError, IntegrityError

__all__ = ["read_image", "write_pgm", "rgb_to_gray"]

_WHITESPACE = b" \t\n\r\v\f"


def _next_token(buf, pos):
    """Returns (token bytes, position after token), skipping comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c in (b"#",):
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise IntegrityError("netpbm header ended before all fields were read")
    start = pos
    while pos < n and buf[pos:pos + 1] not in _WHITESPACE and buf[pos:pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def _int_token(buf, pos, what):
    token, pos = _next_token(buf, pos)
    try:
        if token.isdigit():
            return int(token), pos
    except ValueError:  # more digits than int() converts
        pass
    raise FormatError(f"netpbm {what} is not a decimal integer: {token!r}")


def read_image(path):
    """Loads a P5 or P6 file as a (H, W) uint8 grayscale array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported netpbm magic {magic!r}; only binary P5/P6 are readable")
    width, pos = _int_token(buf, pos, "width")
    height, pos = _int_token(buf, pos, "height")
    maxval, pos = _int_token(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"netpbm dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(buf) or buf[pos:pos + 1] not in _WHITESPACE:
        raise FormatError("netpbm maxval must be followed by one whitespace byte")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = buf[pos:pos + need]
    if len(payload) < need:
        raise IntegrityError(
            f"netpbm payload truncated: expected {need} bytes, found {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return pixels.reshape(height, width).copy()
    return rgb_to_gray(pixels.reshape(height, width, 3))


def rgb_to_gray(rgb):
    """Integer luma: (299 R + 587 G + 114 B + 500) // 1000 per pixel."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FormatError(f"expected an (H, W, 3) array, got shape {rgb.shape}")
    wide = rgb.astype(np.int64)
    luma = (299 * wide[:, :, 0] + 587 * wide[:, :, 1] + 114 * wide[:, :, 2] + 500) // 1000
    return luma.astype(np.uint8)


def write_pgm(path, pixels):
    """Writes a (H, W) uint8 array as binary P5."""
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise FormatError(f"expected a 2-D uint8 array, got shape {arr.shape} dtype {arr.dtype}")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())

