"""Single-site source mutations for the tests that pin which report rows
catch a fault."""

import __future__
import inspect
import textwrap


def recompiled(module, name, old, new):
    """The function `name` of `module`, or its method `Class.method`,
    compiled with the one occurrence of old replaced by new into a copy of
    the module's namespace; the caller patches it in (monkeypatch) where
    the module's code looks it up."""
    target = module
    for part in name.split("."):
        target = getattr(target, part)
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1
    code = compile(
        source.replace(old, new), module.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(vars(module))
    exec(code, namespace)
    return namespace[name.rsplit(".", 1)[-1]]
