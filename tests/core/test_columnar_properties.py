"""Property tests: the columnar core against the dict-backed reference model.

:class:`~repro.core.dictcore.DictObservationIndex` is the pre-columnar
``ObservationIndex`` implementation, kept verbatim as the correctness
oracle.  Hypothesis drives random interleavings of every public mutation —
``add`` (with and without a pre-extracted identifier), ``remove`` and
``extend`` — through both cores in lockstep and asserts the
observable surfaces stay identical at every step:

* ``consume_dirty`` — the same dirty-identifier sets after every operation,
* ``state_signature`` / ``export_state`` — identical decoded state,
* derived reports — :func:`~repro.core.engine.report_signature` equality
  through :class:`~repro.core.engine.ResolutionEngine` (both cores expose
  the same ``alias_sets``/``dual_stack``/``bucket_*`` surface).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictcore import DictObservationIndex
from repro.core.engine import ObservationIndex, ResolutionEngine, report_signature
from repro.core.identifiers import extract_identifier
from repro.simnet.device import ServiceType
from repro.sources.records import Observation

_IPV4 = [f"10.0.0.{i}" for i in range(1, 7)]
_IPV6 = [f"2001:db8::{i:x}" for i in range(1, 5)]
_DEVICES = ["alpha", "beta", "gamma"]


def _asn_for(address: str) -> int:
    """Deterministic per-address ASN (the documented stability constraint)."""
    return 65000 + sum(address.encode()) % 5


@st.composite
def _observation(draw):
    address = draw(st.sampled_from(_IPV4 + _IPV6))
    device = draw(st.sampled_from(_DEVICES))
    protocol = draw(st.sampled_from(list(ServiceType)))
    carries_identifier = draw(st.booleans())
    carries_asn = draw(st.booleans())
    if protocol is ServiceType.SSH:
        fields = (
            ("banner", "SSH-2.0-OpenSSH_9.4"),
            ("capability_signature", f"caps-{device}"),
            ("host_key_fingerprint", f"key-{device}"),
        ) if carries_identifier else ()
        port = 22
    elif protocol is ServiceType.SNMPV3:
        fields = (
            ("engine_boots", "1"),
            ("engine_id", f"engine-{device}"),
        ) if carries_identifier else ()
        port = 161
    else:
        fields = (
            ("asn", "65000"),
            ("bgp_identifier", f"198.51.100.{1 + sum(device.encode()) % 9}"),
            ("capabilities", ""),
            ("hold_time", "90"),
            ("message_length", "45"),
            ("version", "4"),
        ) if carries_identifier else ()
        port = 179
    return Observation(
        address=address,
        protocol=protocol,
        source="hypothesis",
        port=port,
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6)),
        asn=_asn_for(address) if carries_asn else None,
        fields=fields,
    )


_ADD, _ADD_CACHED, _REMOVE, _EXTEND = range(4)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just(_ADD), _observation()),
        st.tuples(st.just(_ADD_CACHED), _observation()),
        st.tuples(st.just(_REMOVE), st.integers(min_value=0, max_value=2**16)),
        st.tuples(st.just(_EXTEND), st.lists(_observation(), max_size=6)),
    ),
    max_size=25,
)


def _normalise_dirty(dirty):
    return {key: values for key, values in dirty.items() if values}


def _apply(columnar, oracle, operations, seed):
    """Drive both cores through ``operations``; compare after every step."""
    rng = random.Random(seed)
    added: list[Observation] = []
    for operation, payload in operations:
        if operation == _ADD:
            assert columnar.add(payload) == oracle.add(payload)
            added.append(payload)
        elif operation == _ADD_CACHED:
            identifier = extract_identifier(payload, columnar.options)
            assert columnar.add(payload, identifier) == oracle.add(payload, identifier)
            added.append(payload)
        elif operation == _REMOVE:
            if not added:
                continue
            observation = added.pop(payload % len(added))
            assert columnar.remove(observation) == oracle.remove(observation)
        else:  # _EXTEND
            columnar.extend(payload)
            oracle.extend(payload)
            added.extend(payload)
        if rng.random() < 0.5:
            assert _normalise_dirty(columnar.consume_dirty()) == _normalise_dirty(
                oracle.consume_dirty()
            )
        assert columnar.state_signature() == oracle.state_signature()
    return added


@settings(max_examples=60, deadline=None)
@given(operations=_operations, seed=st.integers(min_value=0, max_value=2**16))
def test_random_mutations_match_reference_model(operations, seed):
    columnar = ObservationIndex()
    oracle = DictObservationIndex()
    _apply(columnar, oracle, operations, seed)
    assert columnar.observed == oracle.observed
    assert columnar.indexed == oracle.indexed
    assert columnar.export_state() == oracle.export_state()
    assert _normalise_dirty(columnar.consume_dirty()) == _normalise_dirty(
        oracle.consume_dirty()
    )


@settings(max_examples=40, deadline=None)
@given(operations=_operations, seed=st.integers(min_value=0, max_value=2**16))
def test_derived_reports_match_reference_model(operations, seed):
    columnar = ObservationIndex()
    oracle = DictObservationIndex()
    _apply(columnar, oracle, operations, seed)
    engine = ResolutionEngine()
    assert report_signature(engine.report(columnar, name="x")) == report_signature(
        engine.report(oracle, name="x")
    )


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(_observation(), max_size=20))
def test_state_roundtrip_matches_reference_model(stream):
    """export_state agrees between cores for any built stream."""
    columnar = ObservationIndex.build(stream)
    oracle = DictObservationIndex.build(stream)
    assert columnar.export_state() == oracle.export_state()


@settings(max_examples=40, deadline=None)
@given(stream=st.lists(_observation(), max_size=20))
def test_columnar_roundtrip_preserves_signature(stream):
    """export_columnar / from_columnar is lossless (the persist path)."""
    columnar = ObservationIndex.build(stream)
    restored = ObservationIndex.from_columnar(columnar.export_columnar())
    assert restored.state_signature() == columnar.state_signature()
    assert restored.export_state() == columnar.export_state()
