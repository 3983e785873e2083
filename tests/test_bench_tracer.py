"""The benchmark tracer must still find and restore every name it patches."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "kgbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("kgbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_site_and_uninstall_restores_it():
    tracer_mod = load_tracer()
    sites = [(tracer_mod._owner(target), attr) for target, attr, _ in tracer_mod.SITES]
    tape_cls = tracer_mod._owner("kgreason.autodiff:Tape")
    sites += [(tape_cls, op) for op in tracer_mod.PRIMITIVES]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        patched = [owner.__dict__[attr] for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(owner.__dict__[attr] is o for (owner, attr), o in zip(sites, originals))
