"""The shared ``to_spec()`` / ``from_spec()`` declarative-surface protocol.

The pipeline's settings tables — ``[execution]``, ``[stream]``,
``[fleet]``, ``[serve]`` and the serve layer's ``"select"`` request —
are frozen dataclasses that inherit :class:`SpecTable`, which writes the
protocol once, from the dataclass fields:

* ``obj.to_spec()`` returns a JSON-serialisable mapping that fully
  describes the object: every field that is not ``None``, in field
  order (absent keys mean "default", which keeps the mappings
  round-trippable through TOML, which has no null); a nested table is
  its own ``to_spec()``, left out when empty;
* ``Type.from_spec(mapping)`` validates the mapping — collecting *every*
  problem, not just the first: unknown keys, then the nested tables'
  problems, then the constructor's — and rebuilds an equal object,
  raising :class:`SpecError` otherwise;
* ``obj.with_overrides(**fields)`` is a copy with the non-``None``
  fields replaced (the CLI flag overlays);
* ``Type.from_spec(obj.to_spec()) == obj`` holds for every implementor
  (the round-trip law; ``tests/test_api.py`` locks it in).

Each type checks its own fields in ``__post_init__``, so a value built
directly, by ``with_overrides`` or by ``from_spec`` passes the same
checks with the same problem texts.  Oracle ``spec()`` dicts follow the
same ``to_spec``/``from_spec`` contract, dispatching on their ``name``.

:class:`SpecError` is the shared validation-error type.  It subclasses
``ValueError`` so pre-protocol ``except ValueError`` call sites keep
working, and carries the machine-readable ``source`` and ``problems``
attributes the CLI and the serve layer render from.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Callable, Iterable, Mapping


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


class SpecTable:
    """The spec protocol of a frozen dataclass that is one config table.

    Subclasses name their table (``class StreamSpec(SpecTable,
    table="stream")``; a subclass of theirs inherits it) and declare only
    their fields and a ``__post_init__`` raising ``SpecError(table,
    problems)``.  A field whose default is itself a :class:`SpecTable` is
    a nested table.
    """

    _table: str

    def __init_subclass__(cls, *, table: str | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if table is not None:
            cls._table = table

    def to_spec(self) -> dict:
        """JSON/TOML-ready mapping; ``None`` fields and empty nested tables are omitted."""
        spec = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, SpecTable):
                value = value.to_spec() or None
            if value is not None:
                spec[field.name] = value
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping):
        """Validate a table mapping into a value, collecting every problem."""
        table, own = cls._table, fields(cls)
        spec = check_spec_mapping(spec, table)
        problems = unknown_key_problems(spec, tuple(field.name for field in own), table)
        kwargs = {}
        for field in own:
            if field.name not in spec:
                continue
            value = spec[field.name]
            if isinstance(field.default, SpecTable):
                try:
                    value = type(field.default).from_spec(value)
                except SpecError as exc:
                    problems.extend(f"{table}.{problem}" for problem in exc.problems)
                    continue
            kwargs[field.name] = value
        try:
            built = cls(**kwargs)
        except SpecError as exc:
            raise SpecError(table, problems + exc.problems) from None
        if problems:
            raise SpecError(table, problems)
        return built

    def with_overrides(self, **overrides):
        """A copy with the non-``None`` overrides replaced (CLI flag overlays)."""
        return replace(self, **{key: value for key, value in overrides.items() if value is not None})


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


# The field checks below append one problem to ``problems`` and return
# ``None`` for a bad value, and return the value itself otherwise.


def check_enum(problems: list[str], table: str, key: str, value: object, allowed: tuple[str, ...]):
    """``value`` must be one of the strings in ``allowed``."""
    if not isinstance(value, str) or value not in allowed:
        problems.append(f"{table}.{key}: must be one of {', '.join(allowed)}; got {value!r}")
        return None
    return value


def check_positive_int(problems: list[str], table: str, key: str, value: object) -> int | None:
    """``value`` must be an integer >= 1 (``bool`` is not an integer here)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        problems.append(f"{table}.{key}: must be a positive integer, got {value!r}")
        return None
    return value


def check_nonempty_list(
    problems: list[str], table: str, key: str, value: object, items: str, item_ok: Callable | None = None
) -> list | None:
    """``value`` must be a non-empty list, each item passing ``item_ok`` if given.

    ``items`` completes the message: ``"must be a non-empty list {items}"``.
    """
    if not isinstance(value, list) or not value or (item_ok and not all(map(item_ok, value))):
        problems.append(f"{table}.{key}: must be a non-empty list {items}, got {value!r}")
        return None
    return value


def assert_roundtrip(obj: SpecTable) -> None:
    """Raise ``AssertionError`` unless ``from_spec(to_spec(obj)) == obj``.

    A debugging/test helper, not a hot-path check.
    """
    rebuilt = type(obj).from_spec(obj.to_spec())
    if rebuilt != obj:
        raise AssertionError(f"spec round-trip changed the value: {obj!r} -> {rebuilt!r}")
