import sys
import time
import types

import pytest

from tracer import Tracer


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fake_modules():
    """Two modules under the flagrep namespace: ``b`` binds ``a.inner`` by value."""
    a = types.ModuleType("flagrep._bench_a")
    b = types.ModuleType("flagrep._bench_b")

    def inner():
        busy(0.02)
        return [1, 2, 3]

    def outer():
        busy(0.01)
        return a.inner() + b.inner_alias()

    def numbers(k):
        for i in range(k):
            busy(0.005)
            yield i

    class Thing:
        def __init__(self, n):
            self.terms = list(range(n))

    a.inner, a.outer, a.numbers, a.Thing = inner, outer, numbers, Thing
    b.inner_alias = inner
    sys.modules[a.__name__], sys.modules[b.__name__] = a, b
    yield a, b
    del sys.modules[a.__name__], sys.modules[b.__name__]


def spec(*names):
    table = {
        "inner": ("t.inner", "flagrep._bench_a", "inner", None, False),
        "outer": ("t.outer", "flagrep._bench_a", "outer", None, False),
        "numbers": ("t.numbers", "flagrep._bench_a", "numbers", lambda r, a: len(r), True),
        "renamed": ("t.renamed", "flagrep._bench_a", "no_longer_here", None, False),
        "gone_module": ("t.gone", "flagrep._bench_missing", "inner", None, False),
    }
    return tuple(table[n] for n in names)


def test_self_time_excludes_nested_spans(fake_modules):
    a, _ = fake_modules
    tracer = Tracer(functions=spec("inner", "outer"), methods=())
    tracer.install()
    start = time.perf_counter_ns()
    a.outer()
    wall = time.perf_counter_ns() - start
    tracer.restore()

    outer, inner = tracer.stats["t.outer"], tracer.stats["t.inner"]
    assert inner.calls == 2 and outer.calls == 1
    assert outer.self_ns == outer.total_ns - inner.total_ns
    assert inner.self_ns == inner.total_ns
    assert 0.005e9 < outer.self_ns < 0.03e9
    assert outer.self_ns + inner.self_ns <= wall
    assert inner.parents["t.outer"] == 2


def test_every_binding_is_wrapped_and_restored(fake_modules):
    a, b = fake_modules
    original = a.inner
    tracer = Tracer(functions=spec("inner"), methods=())
    tracer.install()
    assert a.inner is not original and b.inner_alias is a.inner
    b.inner_alias()
    assert tracer.stats["t.inner"].calls == 1
    tracer.restore()
    assert a.inner is original and b.inner_alias is original


def test_missing_names_are_absent_layers_not_errors(fake_modules):
    a, _ = fake_modules
    methods = (
        ("t.init", "flagrep._bench_a", "Thing", "__init__", lambda r, args: len(args[0].terms)),
        ("t.lost", "flagrep._bench_a", "Thing", "__post_init__", None),
        ("t.lost_class", "flagrep._bench_a", "Gone", "__init__", None),
    )
    tracer = Tracer(functions=spec("renamed", "gone_module", "inner"), methods=methods)
    tracer.install()
    a.Thing(4)
    a.inner()
    tracer.restore()
    assert tracer.absent == ["t.renamed", "t.gone", "t.lost", "t.lost_class"]
    assert tracer.stats["t.renamed"].calls == 0
    assert tracer.stats["t.init"].calls == 1 and tracer.stats["t.init"].count == 4
    assert tracer.stats["t.inner"].calls == 1


def test_generator_is_consumed_inside_its_span(fake_modules):
    a, _ = fake_modules
    tracer = Tracer(functions=spec("numbers"), methods=())
    tracer.install()
    assert list(a.numbers(4)) == [0, 1, 2, 3]
    tracer.restore()
    stat = tracer.stats["t.numbers"]
    assert stat.total_ns >= 4 * 0.005e9
    assert stat.count == 4


def test_exceptions_are_counted_as_errors(fake_modules):
    a, _ = fake_modules

    def fails():
        raise ValueError("bad input")

    a.fails = fails
    tracer = Tracer(functions=(("t.fails", "flagrep._bench_a", "fails", None, False),), methods=())
    tracer.install()
    with pytest.raises(ValueError):
        a.fails()
    tracer.restore()
    assert tracer.stats["t.fails"].errors == 1 and tracer.stats["t.fails"].calls == 1


def test_default_layers_all_resolve_in_flagrep():
    import flagrep

    tracer = Tracer()
    tracer.install()
    try:
        cd = flagrep.cartan_from_tag("A2")
        flagrep.check_realizable(cd, flagrep.cohom_from_rows([[1, 0], [-1, 1]]))
    finally:
        tracer.restore()
    assert tracer.absent == []
    m = tracer.metrics()
    assert m["realize.check.calls"] == 1 and m["realize.certified_ratio"] == 1.0
    assert m["cartan.build.calls"] >= 1
    assert tracer.self_ms_total() > 0
