"""Small bit-mask helpers shared across the GF(2) layers."""

popcount = int.bit_count


def bits_to_int(s: str) -> int:
    """'0'/'1' string, leftmost character most significant.  Any other
    character raises ValueError, including the '_', sign, space and '0b'
    forms that int(s, 2) would accept."""
    if s.strip("01"):  # strip stops at the first other character from each end
        raise ValueError(f"not a '0'/'1' bitstring: {s!r}")
    return int(s, 2) if s else 0


def int_to_bits(v: int, width: int) -> str:
    return format(v, f"0{width}b")


def rotl(v: int, i: int, width: int) -> int:
    """Cyclic left rotation of a width-bit value."""
    i %= width
    if i == 0:
        return v
    mask = (1 << width) - 1
    return ((v << i) | (v >> (width - i))) & mask
