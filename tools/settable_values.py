"""Count the values a caller of elastic_mine can set.

Counted: the parameters of the public functions each module defines, the
parameters of the public methods and classmethods of its classes (not
``self`` or ``cls``; exception classes are skipped), the ``__init__``
fields of its dataclasses and NamedTuples, and every command-line option
except help and the choice of subcommand. A second line counts the names
``elastic_mine.__all__`` exports. Run from the repository root:

    PYTHONPATH=src python tools/settable_values.py
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import elastic_mine
from elastic_mine.cli import build_parser


def _parameters(fn) -> int:
    return sum(p.name not in ("self", "cls") for p in inspect.signature(fn).parameters.values())


def library_counts() -> tuple[int, int]:
    """Parameters of public functions and methods, and fields of record types."""
    params = fields = 0
    for info in pkgutil.iter_modules(elastic_mine.__path__):
        module = importlib.import_module(f"elastic_mine.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                params += _parameters(obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                if dataclasses.is_dataclass(obj):
                    fields += sum(f.init for f in dataclasses.fields(obj))
                elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                    fields += len(obj._fields)
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        params += _parameters(member)
    return params, fields


def option_count(parser: argparse.ArgumentParser) -> int:
    """Options of ``parser`` and of every subcommand parser below it."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(option_count(sub) for sub in action.choices.values())
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


if __name__ == "__main__":
    params, fields = library_counts()
    options = option_count(build_parser())
    print(f"{params + fields + options} settable values: {params} parameters, "
          f"{fields} record fields, {options} command-line options")
    print(f"{len(elastic_mine.__all__)} exported names")
