"""DEFAULT_DPS, the working precision in decimal digits of every routine that takes a dps argument."""

DEFAULT_DPS = 50
