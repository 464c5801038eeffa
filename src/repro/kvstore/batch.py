"""Write batches: a group of puts/deletes applied together.

Engines with batch-aware logging (MioDB) persist the whole batch under
one commit marker, so a crash mid-batch rolls the entire batch back --
the all-or-nothing contract LevelDB's ``WriteBatch`` provides.
"""

from typing import List, Tuple

from repro.kvstore.api import require_key
from repro.kvstore.values import value_nbytes


# repro: allow[DEAD001] public API: the argument of KVStore.write
class WriteBatch:
    """An ordered collection of put/delete operations.

    Contract (every engine's ``write`` honors it, including the WAL
    replay path after a crash):

    - **Iteration order**: ``ops`` holds operations exactly in the order
      ``put``/``delete`` were called, and engines apply them in that
      order with strictly increasing sequence numbers.
    - **Last write wins**: when the same key appears multiple times in
      one batch, the operation queued last determines the key's final
      state -- a later ``put`` shadows an earlier ``put`` or ``delete``,
      a later ``delete`` tombstones an earlier ``put``.  Earlier
      versions are still written (they cost what they cost); they are
      simply shadowed by the higher sequence number.
    - A batch can be reused after :meth:`clear`.
    """

    def __init__(self) -> None:
        self.ops: List[Tuple[str, bytes, object]] = []

    def put(self, key: bytes, value) -> "WriteBatch":
        """Queue an insert/update; returns self for chaining."""
        require_key(key)
        value_nbytes(value)  # validate eagerly
        self.ops.append(("put", key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        """Queue a delete; returns self for chaining."""
        require_key(key)
        self.ops.append(("delete", key, None))
        return self

    def clear(self) -> "WriteBatch":
        """Drop every queued operation; returns self for chaining."""
        self.ops.clear()
        return self

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def is_empty(self) -> bool:
        return not self.ops

    def __repr__(self) -> str:
        return f"WriteBatch({len(self.ops)} ops)"
