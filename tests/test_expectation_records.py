"""Each expectation kind's record in ``scenarios.CHECK_KINDS`` declares what its check reads."""

from collections import defaultdict

from osscontrol import scenarios


class ReadLog(dict):
    """A walked expectation that logs the keys its check looks up (``looked``)
    and the values it reads (``read``)."""

    def __init__(self, spec, looked: set, read: set):
        super().__init__(spec)
        self.looked, self.read = looked, read

    def __getitem__(self, key):
        self.looked.add(key)
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.looked.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.looked.add(key)
        if key in self.keys():
            self.read.add(key)
        return super().get(key, default)


def declared(kind: str) -> set:
    rec = scenarios.CHECK_KINDS[kind]
    return {"kind", *rec.required, *rec.optional, *rec.one_of}


def test_every_check_reads_exactly_what_its_record_declares():
    looked, read = defaultdict(set), defaultdict(set)
    for name in scenarios.BUNDLED_NAMES:
        sc = scenarios.load_scenario(name)
        for specs in (sc.expect, *(plan.expect for plan in sc.variants)):
            specs[:] = [ReadLog(s, looked[s["kind"]], read[s["kind"]]) for s in specs]
        # tracking-sparse's checks read the same fields over 2 s as over its 40 s
        report, _ = scenarios.run_scenario(sc, t_end=2.0 if name == "tracking-sparse" else None)
        assert report.results, name
    # every kind is run by a bundled document
    assert set(looked) == set(scenarios.CHECK_KINDS)
    for kind in scenarios.CHECK_KINDS:
        assert looked[kind] <= declared(kind), kind
        assert read[kind] == declared(kind), kind
