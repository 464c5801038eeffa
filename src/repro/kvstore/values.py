"""Value representations.

The paper's datasets use values of 1-64 KB.  Materialising those payloads
in the interpreter would dominate runtime without affecting any result,
so benchmarks use :class:`SizedValue`: a tiny object carrying a *nominal*
size that the cost model charges for.  Correctness tests use real
``bytes`` values; both flow through the same store code.
"""


class SizedValue:
    """A value whose accounted size is decoupled from its payload."""

    __slots__ = ("tag", "nbytes")

    def __init__(self, tag, nbytes: int) -> None:
        # A plain int is the one type every workload passes: one test.
        if type(nbytes) is not int and (
            not isinstance(nbytes, int) or isinstance(nbytes, bool)
        ):
            raise TypeError(f"value size must be an int, got {nbytes!r}")
        if nbytes < 0:
            raise ValueError(f"value size must be >= 0, got {nbytes}")
        self.tag = tag
        self.nbytes = nbytes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SizedValue)
            and other.tag == self.tag
            and other.nbytes == self.nbytes
        )

    def __hash__(self) -> int:
        return hash((self.tag, self.nbytes))

    def __repr__(self) -> str:
        return f"SizedValue({self.tag!r}, {self.nbytes}B)"


def value_nbytes(value) -> int:
    """Accounted size of a value: real length for bytes/str, nominal for
    :class:`SizedValue`; a ``bytearray`` (kept by reference) is refused."""
    if isinstance(value, SizedValue):
        return value.nbytes
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    raise TypeError(
        f"cannot size value of type {type(value).__name__}; "
        "pass bytes or SizedValue"
    )
