import inspect

import robinopt


def test_public_signatures_have_no_private_parameters():
    # private plumbing stays out of the exported functions and constructors
    bad = []
    for name in robinopt.__all__:
        obj = getattr(robinopt, name)
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exceptions that inherit a builtin constructor
            continue
        bad += [f"{name}({p})" for p in params if p.startswith("_")]
    assert bad == []
