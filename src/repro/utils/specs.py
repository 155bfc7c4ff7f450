"""The shared ``to_spec()`` / ``from_spec()`` declarative-surface protocol.

The repository grew ad-hoc "describe me as a JSON-able mapping"
surfaces — oracle ``spec()`` dicts and the pipeline's ``[execution]`` /
``[fleet]`` / ``[serve]`` config tables.  This module is the one contract
they all implement:

* ``obj.to_spec()`` returns a JSON-serialisable mapping that fully
  describes the object (no ``None`` placeholders: absent keys mean
  "default", which keeps the mappings round-trippable through TOML,
  which has no null);
* ``Type.from_spec(mapping)`` validates the mapping — collecting *every*
  problem, not just the first — and rebuilds an equal object, raising
  :class:`SpecError` otherwise;
* ``Type.from_spec(obj.to_spec()) == obj`` holds for every implementor
  (the round-trip law; ``tests/test_api.py`` locks it in).

:class:`SpecError` is the shared validation-error type.  It subclasses
``ValueError`` so pre-protocol ``except ValueError`` call sites keep
working, and carries the machine-readable ``source`` and ``problems``
attributes the CLI and the serve layer render from.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, runtime_checkable


class SpecError(ValueError):
    """A spec mapping failed validation; ``problems`` lists every issue.

    Parameters
    ----------
    source:
        What was being validated — a file path, a table name
        (``"execution"``), or a record kind (``"bench-serve record"``).
    problems:
        One human-readable message per issue found.  Validators collect
        all of them before raising, so a config with five mistakes is
        fixed in one edit, not five.
    label:
        Noun used in the headline message (subclasses override it to
        keep their historical wording).
    """

    def __init__(self, source: str, problems: Iterable[str], *, label: str = "spec") -> None:
        self.source = source
        self.problems = list(problems)
        details = "\n".join(f"  - {problem}" for problem in self.problems)
        super().__init__(f"invalid {label} {source}:\n{details}")


@runtime_checkable
class Specable(Protocol):
    """Structural type of every ``to_spec``/``from_spec`` implementor."""

    def to_spec(self) -> dict: ...  # pragma: no cover - protocol stub

    @classmethod
    def from_spec(cls, spec: Mapping) -> "Specable": ...  # pragma: no cover - protocol stub


def check_spec_mapping(spec: object, source: str) -> Mapping:
    """Common ``from_spec`` entry guard: the input must be a mapping."""
    if not isinstance(spec, Mapping):
        raise SpecError(source, [f"must be a table/object, got {type(spec).__name__}"])
    return spec


def unknown_key_problems(spec: Mapping, known: tuple[str, ...], table: str) -> list[str]:
    """One problem message per key of ``spec`` not in ``known``."""
    return [
        f"{table}.{key}: unknown key (expected {', '.join(known)})"
        for key in spec
        if key not in known
    ]


def assert_roundtrip(obj: Specable) -> None:
    """Raise ``AssertionError`` unless ``from_spec(to_spec(obj)) == obj``.

    A debugging/test helper, not a hot-path check.
    """
    rebuilt = type(obj).from_spec(obj.to_spec())
    if rebuilt != obj:
        raise AssertionError(f"spec round-trip changed the value: {obj!r} -> {rebuilt!r}")
