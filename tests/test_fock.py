import math
from fractions import Fraction

import numpy as np
import pytest

from wstategen import linalg
from wstategen.errors import CapacityError, NumericalError
from wstategen.evolve import evolve, oracle_evolve
from wstategen.fock import (
    FockState,
    Mode,
    Polarization,
    Product,
    SuperposedState,
    probabilities,
    product_input,
    row_keys,
    single_photon_state,
    target_from_coefficients,
    w_state_path,
    w_state_polarization,
)
from wstategen.postselect import CoincidencePattern, fidelity, postselect
from wstategen.schemes import run_designed_path, run_path_w, run_polarization_w

H, V = Polarization.H, Polarization.V


class TestFockState:
    def test_single_photon(self):
        s = single_photon_state(0, H, 3)
        assert s.count(Mode(0, H)) == 1
        assert s.total_photons() == 1
        assert s.occupation_vector(H) == (1, 0, 0)
        assert s.occupation_vector(V) == (0, 0, 0)

    def test_single_photon_v_port(self):
        s = single_photon_state(2, V, 3)
        assert s.occ == ((Mode(2, V), 1),)

    def test_out_of_range_port(self):
        with pytest.raises(ValueError):
            single_photon_state(5, H, 4)

    def test_product_input_scheme2(self):
        s = product_input([(0, H), (1, H), (2, V)], 3)
        assert s.photons_per_pol() == {H: 2, V: 1}
        assert s.spatial_counts() == (1, 1, 1)

    def test_product_input_multiset(self):
        s = product_input([(0, H), (0, H)], 2)
        assert s.count(Mode(0, H)) == 2

    def test_canonical_form_drops_zero_counts(self):
        a = FockState.from_counts({Mode(0, H): 1, Mode(1, V): 0}, 2)
        b = FockState.from_counts({Mode(0, H): 1}, 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_structural_equality(self):
        a = product_input([(1, H), (0, V)], 2)
        b = FockState.from_counts({Mode(0, V): 1, Mode(1, H): 1}, 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_json_round_trip(self):
        s = product_input([(0, H), (0, H), (2, V)], 3)
        assert FockState.from_json_obj(s.to_json_obj()) == s

    def test_repeated_mode_counts_merge(self):
        s = FockState.from_counts([(Mode(1, V), 1), (Mode(0, H), 1), (Mode(1, V), 2)], 2)
        assert s.count(Mode(1, V)) == 3
        assert (s.h, s.v) == ((1, 0), (0, 3))

    def test_repeated_json_entries_add_up(self):
        entry = {"port": 0, "pol": "H", "count": 1}
        s = FockState.from_json_obj({"nPorts": 2, "occ": [entry, entry]})
        assert s == FockState(2, (2, 0), (0, 0))
        assert str(s) == "|H0^2>"

    @pytest.mark.parametrize("port, count", [(0, 1.5), (0.0, 1), (0, "1"), (True, 1), (0, True)])
    def test_non_integer_port_or_count_rejected(self, port, count):
        with pytest.raises(ValueError, match="must be integers"):
            FockState.from_counts([((port, H), count)], 2)

    @pytest.mark.parametrize("n_ports", [2.5, 2.0, "2", None, True])
    def test_non_integer_n_ports_rejected(self, n_ports):
        with pytest.raises(ValueError, match="n_ports"):
            FockState.from_counts([], n_ports)

    def test_json_booleans_rejected(self):
        obj = {"nPorts": True, "occ": [{"port": False, "pol": "H", "count": True}]}
        with pytest.raises(ValueError, match="n_ports"):
            FockState.from_json_obj(obj)
        with pytest.raises(ValueError, match="must be integers"):
            FockState.from_json_obj({**obj, "nPorts": 1})

    def test_numpy_integer_n_ports_accepted(self):
        s = FockState.from_counts([((1, H), 1)], np.int64(2))
        assert s == FockState(2, (0, 1), (0, 0))
        assert type(s.n_ports) is int

    def test_numpy_integers_accepted(self):
        s = FockState.from_counts([((np.int64(1), V), np.int32(2))], 2)
        assert s == FockState(2, (0, 0), (0, 2))
        assert type(s.v[1]) is int

    def test_occ_is_port_major_h_before_v(self):
        s = FockState.from_counts({Mode(1, V): 1, Mode(0, V): 1, Mode(1, H): 2}, 2)
        assert s.occ == ((Mode(0, V), 1), (Mode(1, H), 2), (Mode(1, V), 1))

    def test_count_of_absent_mode_is_zero(self):
        s = single_photon_state(0, H, 3)
        assert s.count(Mode(0, V)) == 0
        assert s.count(Mode(2, H)) == 0

    def test_constructors_agree(self):
        a = FockState.from_counts({Mode(2, V): 1, Mode(0, H): 2}, 3)
        b = FockState.from_json_obj(a.to_json_obj())
        c = FockState(3, (2, 0, 0), (0, 0, 1))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)

    def test_str_of_bunched_state(self):
        s = product_input([(3, H), (0, V), (0, H), (0, H)], 4)
        assert str(s) == "|H0^2 V0 H3>"

    def test_json_shape(self):
        s = single_photon_state(1, V, 2)
        assert s.to_json_obj() == {
            "nPorts": 2,
            "occ": [{"port": 1, "pol": "V", "count": 1}],
        }


def _reference_ket(state: FockState) -> str:
    """The ket of a state, built from its ``occ`` view."""
    occ = state.occ
    if not occ:
        return f"|vac;{state.n_ports}>"
    parts = [f"{m.pol.value}{m.port}" + (f"^{c}" if c > 1 else "") for m, c in occ]
    return "|" + " ".join(parts) + ">"


def _seeded_states(n_ports: int, seed: int) -> list[FockState]:
    """The vacuum and random states with counts up to 5, sparse to full."""
    rng = np.random.default_rng(seed)
    states = [FockState(n_ports, (0,) * n_ports, (0,) * n_ports)]
    for density in (0.1, 0.5, 1.0):
        for _ in range(60):
            h, v = (tuple(np.where(rng.random(n_ports) < density,
                                   rng.integers(1, 6, n_ports), 0).tolist()) for _ in "hv")
            states.append(FockState(n_ports, h, v))
    return states


def _table_state(states: list[FockState]) -> SuperposedState:
    """The terms ``states``, in the given order, each with amplitude 1."""
    n = states[0].n_ports
    table = np.array([h + v for _, h, v in states], dtype=np.int64).reshape(len(states), 2 * n)
    return SuperposedState(Product((table, np.ones(len(states)))), n, require_normalized=False)


def _assert_kets_match_reference(state: SuperposedState) -> None:
    states = [s for s, _ in state]
    expected = [_reference_ket(s) for s in states]
    assert state.kets() == expected
    assert [str(s) for s in states] == expected


class TestKetTexts:
    """``SuperposedState.kets`` and ``str(FockState)`` against the ``occ``-built ket."""

    def test_examples(self):
        both = FockState.from_counts({Mode(0, H): 2, Mode(0, V): 1, Mode(2, V): 5}, 3)
        vacuum = FockState.from_counts([], 3)
        assert _table_state([both, vacuum]).kets() == ["|H0^2 V0 V2^5>", "|vac;3>"]
        assert (str(both), str(vacuum)) == ("|H0^2 V0 V2^5>", "|vac;3>")
        assert SuperposedState([], 3, require_normalized=False).kets() == []

    @pytest.mark.parametrize("n_ports", [1, 2, 7, 64])
    def test_matches_occ_reference(self, n_ports):
        states = sorted(set(_seeded_states(n_ports, 1300 + n_ports)))
        assert any(c == 5 for s in states for c in s.h + s.v)
        assert any(ch and cv for s in states for ch, cv in zip(s.h, s.v))
        _assert_kets_match_reference(_table_state(states))

    def test_int8_table_from_evolve(self):
        state = evolve(linalg.dft_multiport(4), product_input([(0, H), (0, H), (2, V)], 4))
        assert state.occupations.dtype == np.int8 and len(state) == 40
        _assert_kets_match_reference(state)

    @pytest.mark.parametrize("vacuum_row", [1, 700, 1024, 2048, 2499])
    def test_rows_past_one_block(self, vacuum_row):
        # kets() reads the rows in stored order, so the vacuum may sit anywhere:
        # inside a block, or opening the second or third block of 1,024 rows.
        # Row i holds the base-4 digits of i + 1 over 4 ports, H then V.
        table = (np.arange(1, 2500)[:, None] // 4 ** np.arange(7, -1, -1)) % 4
        table = np.insert(table, vacuum_row, 0, axis=0)
        states = [FockState(4, tuple(row[:4]), tuple(row[4:])) for row in table.tolist()]
        state = _table_state(states)
        _assert_kets_match_reference(state)
        assert state.kets()[vacuum_row] == "|vac;4>"

    def test_counts_up_to_the_cap(self):
        state = _table_state([FockState(2, (24, 0), (0, 24)), FockState(2, (0, 24), (24, 0))])
        assert state.kets() == ["|H0^24 V1^24>", "|V0^24 H1^24>"]
        _assert_kets_match_reference(state)

    def test_fock_state_text_of_counts_past_the_cap(self):
        """A :class:`FockState` takes any count, and its text writes it in full."""
        state = FockState(2, (2**62, 5), (0, 2**40))
        assert str(state) == "|H0^4611686018427387904 H1^5 V1^1099511627776>"
        assert str(state) == _reference_ket(state)
        assert str(FockState(1, (2**70,), (1,))) == f"|H0^{2**70} V0>"


class TestFockStateValue:
    """A state is the immutable tuple ``(n_ports, h, v)``."""

    def test_hash_is_the_field_tuple_hash(self):
        for s in _seeded_states(5, 1500):
            assert hash(s) == hash((s.n_ports, s.h, s.v))

    def test_equals_the_plain_tuple(self):
        s = FockState(2, (1, 0), (0, 1))
        assert s == (2, (1, 0), (0, 1))
        assert tuple(s) == (s.n_ports, s.h, s.v) and len(s) == 3

    @pytest.mark.parametrize("field", ["n_ports", "h", "v", "other"])
    def test_attribute_assignment_raises(self, field):
        s = FockState(2, (1, 0), (0, 1))
        with pytest.raises(AttributeError):
            setattr(s, field, (0, 0))

    def test_repr(self):
        assert repr(FockState(2, (1, 0), (0, 1))) == "FockState(n_ports=2, h=(1, 0), v=(0, 1))"

    @pytest.mark.parametrize("n_ports", [1, 3, 8])
    def test_order_is_h_then_v(self, n_ports):
        states = _seeded_states(n_ports, 1600 + n_ports)
        np.random.default_rng(n_ports).shuffle(states)
        assert sorted(states) == sorted(states, key=lambda s: (s.h, s.v))

    def test_from_counts_is_a_classmethod_on_the_class(self):
        # Tracing wraps it in place through the class dictionary.
        assert isinstance(FockState.__dict__["from_counts"], classmethod)


def _mixed_terms(seed: int) -> list[tuple[FockState, complex]]:
    """Normalized shuffled terms over 3 ports with 2 H and 1 V photons.

    Two states appear twice (their amplitudes add), one more appears twice
    with amplitudes that cancel, and four more carry an exact zero or an
    amplitude below the prune tolerance.
    """
    rng = np.random.default_rng(seed)
    states = [FockState(3, h, v) for h in [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0),
                                           (0, 1, 1), (0, 0, 2)]
              for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    rng.shuffle(states)
    amps = rng.normal(size=14) + 1j * rng.normal(size=14)
    amps /= np.linalg.norm(amps)
    terms = [(s, complex(a)) for s, a in zip(states, amps)]
    for i, part in ((0, 0.25), (5, -0.5j)):
        state, amp = terms[i]
        terms[i] = (state, (1 - part) * amp)
        terms.append((state, part * amp))
    terms += [(states[14], 0j), (states[15], 0.0), (states[16], 3e-13), (states[17], -7e-13j)]
    terms += [(states[15], 0.03 - 0.01j), (states[15], -0.03 + 0.01j)]
    rng.shuffle(terms)
    return terms


def _as_dict(terms) -> dict:
    out = {}
    for s, a in terms:
        out[s] = out.get(s, 0.0) + a
    return out


def _forms(terms):
    return {"generator": lambda: (t for t in terms), "list": lambda: list(terms),
            "dict": lambda: _as_dict(terms)}


class TestSuperposedInputForms:
    @pytest.mark.parametrize("seed", [1700, 1701, 1702])
    def test_forms_agree_and_duplicates_add(self, seed):
        terms = _mixed_terms(seed)
        built = {name: SuperposedState(make(), 3) for name, make in _forms(terms).items()}
        expected = {s: a for s, a in _as_dict(terms).items() if abs(a) >= 1e-12}
        order = sorted(expected, key=lambda s: (s.h, s.v))
        assert len(expected) == 14
        for state in built.values():
            assert state.terms == expected
            assert [s for s, _ in state] == order
        duplicated = [s for s in expected if sum(t == s for t, _ in terms) == 2]
        assert len(duplicated) == 2

    @pytest.mark.parametrize("seed", [1700, 1701])
    def test_forms_raise_the_same_errors(self, seed):
        for name, bad, message in _faulty_terms(_mixed_terms(seed)):
            for form, make in _forms(bad).items():
                with pytest.raises(ValueError) as info:
                    SuperposedState(make(), 3, require_normalized=False)
                assert type(info.value) is ValueError, (name, form)
                assert str(info.value) == message, (name, form)

    def test_forms_report_the_same_norm(self):
        terms = [(single_photon_state(p, H, 4), 0.5) for p in (3, 1, 2)]
        terms.append((terms[0][0], 0.25))
        for form, make in _forms(terms).items():
            with pytest.raises(NumericalError) as info:
                SuperposedState(make(), 4)
            assert str(info.value) == "state is not normalized: sum |amp|^2 = 1.0625", form
        scaled = [(s, 0.5 * a) for s, a in _mixed_terms(1700)]
        messages = set()
        for form, make in _forms(scaled).items():
            with pytest.raises(NumericalError, match="not normalized") as info:
                SuperposedState(make(), 3)
            messages.add(str(info.value))
        assert len(messages) == 1


def _faulty_terms(terms):
    """(name, ``terms`` with one fault, message) for each fault ``SuperposedState`` rejects.

    Each amplitude fault sits on the largest term, so pruning never hides it. A
    term's port count is checked before pruning, so a wide term of amplitude 0
    is rejected too.
    """
    i = max(range(len(terms)), key=lambda k: abs(terms[k][1]))
    state, amp = terms[i]
    wide = FockState(4, state.h + (0,), state.v + (0,))

    def swap(term):
        return terms[:i] + [term] + terms[i + 1:]

    return [
        ("ports", swap((wide, amp)), f"term {wide} has 4 ports, expected 3"),
        ("zero-amplitude ports", terms + [(wide, 0.0)], f"term {wide} has 4 ports, expected 3"),
        ("totals", terms + [(FockState(3, (1, 1, 1), (0, 0, 0)), 1e-6)],
         "terms differ in photon count per polarization"),
        ("nan", swap((state, complex(math.nan, 0.0))), f"non-finite amplitude for {state}"),
        ("inf", swap((state, complex(0.0, -math.inf))), f"non-finite amplitude for {state}"),
    ]


class TestSuperposedState:
    def test_normalization_enforced(self):
        s = single_photon_state(0, H, 2)
        with pytest.raises(ValueError):
            SuperposedState({s: 0.5}, 2)

    def test_prunes_tiny_amplitudes(self):
        a = single_photon_state(0, H, 2)
        b = single_photon_state(1, H, 2)
        state = SuperposedState({a: 1.0, b: 1e-14}, 2)
        assert len(state) == 1

    def test_mixed_photon_counts_rejected(self):
        one = single_photon_state(0, H, 2)
        two = product_input([(0, H), (1, H)], 2)
        with pytest.raises(ValueError):
            SuperposedState({one: 0.7, two: 0.7}, 2, require_normalized=False)

    @pytest.mark.parametrize("n_ports", [2.5, 2.0, "2"])
    def test_non_integer_n_ports_rejected(self, n_ports):
        with pytest.raises(ValueError, match="n_ports"):
            SuperposedState([], n_ports, require_normalized=False)

    def test_non_integer_n_ports_in_json_rejected(self):
        with pytest.raises(ValueError, match="n_ports"):
            SuperposedState.from_json_obj({"nPorts": 2.5, "terms": []},
                                          require_normalized=False)

    def test_numpy_integer_n_ports_stored_as_int(self):
        state = SuperposedState({single_photon_state(0, H, 2): 1.0}, np.int64(2))
        assert type(state.n_ports) is int
        assert state.to_json_obj()["nPorts"] == 2

    def test_valid_n_ports_accepted_and_zero_rejected(self):
        state = SuperposedState({single_photon_state(1, V, 3): 1.0}, 3)
        assert state.n_ports == 3 and len(state) == 1
        with pytest.raises(ValueError, match="n_ports"):
            SuperposedState([], 0, require_normalized=False)

    def test_counts_past_int64(self):
        huge = FockState(2, (2**70, 0), (0, 0))
        with pytest.raises(CapacityError, match="over the 24-photon cap per polarization$"):
            SuperposedState({huge: 1.0}, 2)
        assert w_state_path(2).amplitude(huge) == 0j

    def test_json_round_trip(self):
        state = w_state_polarization(3)
        back = SuperposedState.from_json_obj(state.to_json_obj())
        assert back == state

    def test_repeated_terms_summing_past_float_range_rejected(self):
        one = FockState(1, (1,), (0,))
        with pytest.raises(ValueError, match=r"^non-finite amplitude for \|H0>$"):
            SuperposedState([(one, 1e308), (one, 1e308)], 1, require_normalized=False)
        term = {"state": one.to_json_obj(), "amp": [1e308, 0.0]}
        with pytest.raises(ValueError, match=r"^non-finite amplitude for \|H0>$"):
            SuperposedState.from_json_obj({"nPorts": 1, "terms": [term, term]},
                                          require_normalized=False)

    def test_repr(self):
        state = SuperposedState({FockState(3, (2, 0, 0), (1, 0, 0)): 0.6,
                                 FockState(3, (0, 0, 2), (0, 0, 1)): -0.8j,
                                 FockState(3, (1, 1, 0), (0, 1, 0)): 1 / 3 + 0.25j},
                                3, require_normalized=False)
        assert repr(state) == ("SuperposedState((0-0.8j)|H2^2 V2> + (0.3333+0.25j)|H0 H1 V1>"
                               " + (0.6+0j)|H0^2 V0>)")
        assert repr(SuperposedState([], 2, require_normalized=False)) == "SuperposedState(0)"


def _householder_4() -> np.ndarray:
    """A 4-port coupler from a fixed target, normalized by ``math`` alone."""
    raw = [1.0, 0.5 + 1.0j, -0.75 + 0.25j, 0.3 - 0.6j]
    norm = math.sqrt(math.fsum(x * x for z in raw for x in (z.real, z.imag)))
    return linalg.complete_unitary_from_column(np.array([z / norm for z in raw]))


def _int64_copy(state: SuperposedState) -> SuperposedState:
    """``state`` rebuilt from an int64 copy of its table, in the :class:`Product` form."""
    table = state.occupations.astype(np.int64)
    return SuperposedState(Product((table, state.amplitudes)), state.n_ports)


class TestRowKeys:
    """A row is keyed by its int8 bytes, and every state holds an int8 table."""

    def test_int8_and_int64_tables_give_equal_keys(self):
        out = evolve(linalg.dft_multiport(3), FockState(3, (5, 0, 2), (0, 3, 0)))
        assert out.occupations.dtype == np.int8
        for dtype in (np.int64, np.uint16):
            wide = out.occupations.astype(dtype)
            copy = SuperposedState(Product((wide, out.amplitudes)), 3)
            assert copy.occupations.dtype == np.int8
            assert row_keys(copy.occupations) == row_keys(out.occupations)
            assert copy.row_index() == out.row_index()
        assert len(set(row_keys(out.occupations))) == len(out)

    def test_fidelity_of_int64_copies(self):
        """States built from int64 copies of ``evolve`` outputs hold int8 tables again, and
        meet the originals' rows: the fidelity keeps its bits on both sides."""
        inp = FockState(4, (2, 1, 0, 0), (0, 0, 1, 0))
        a, b = evolve(linalg.dft_multiport(4), inp), evolve(_householder_4(), inp)
        a64, b64 = _int64_copy(a), _int64_copy(b)
        assert a64.occupations.dtype == b64.occupations.dtype == np.int8
        assert a64 == a and b64 == b
        for state, target in ((a64, b), (a, b64), (a64, b64), (a, b), (b64, a)):
            assert fidelity(state, target) == 0.00691618239178886


OVER_CAP = {"25 H": FockState(2, (25, 0), (0, 0)), "25 V": FockState(2, (0, 0), (0, 25)),
            "25 H on two ports": FockState(2, (13, 12), (1, 0)),
            "10**18 H": FockState(2, (10**18, 0), (0, 1))}


class TestPhotonCap:
    """Every state holds at most ``PHOTON_CAP`` (24) photons of each polarization."""

    @pytest.mark.parametrize("name", OVER_CAP)
    def test_mapping_form_refuses_more(self, name):
        state = OVER_CAP[name]
        with pytest.raises(CapacityError, match="over the 24-photon cap per polarization$"):
            SuperposedState({state: 1.0}, 2)
        with pytest.raises(CapacityError, match="over the 24-photon cap per polarization$"):
            SuperposedState.from_json_obj({"nPorts": 2, "terms": [
                {"state": state.to_json_obj(), "amp": [1.0, 0.0]}]})

    def test_message_names_the_counts(self):
        with pytest.raises(CapacityError) as info:
            SuperposedState([(FockState(1, (10**18,), (3,)), 1.0)], 1)
        assert str(info.value) == ("1000000000000000000 H and 3 V photons: "
                                   "over the 24-photon cap per polarization")

    def test_cap_holds_after_pruning(self):
        """A term that cancels or is below the tolerance holds no photons."""
        over, one = FockState(2, (25, 0), (0, 0)), FockState(2, (1, 0), (0, 0))
        state = SuperposedState([(over, 0.5), (one, 1.0), (over, -0.5), (over, 1e-13)], 2)
        assert list(state) == [(one, 1 + 0j)]

    def test_mapping_form_refuses_negative_counts(self):
        with pytest.raises(ValueError, match="^negative photon count -1$"):
            SuperposedState({FockState(2, (-1, 2), (0, 0)): 1.0}, 2)
        term = {"state": {"nPorts": 2, "occ": [{"port": 0, "pol": "H", "count": -1}]},
                "amp": [1.0, 0.0]}
        with pytest.raises(ValueError, match="negative photon count -1"):
            SuperposedState.from_json_obj({"nPorts": 2, "terms": [term]})

    def test_24_photons_of_each_polarization_fit(self):
        row = FockState(2, (24, 0), (0, 24))
        for state in (SuperposedState({row: 1.0}, 2), SuperposedState.from_json_obj(
                {"nPorts": 2, "terms": [{"state": row.to_json_obj(), "amp": [0.0, 1.0]}]})):
            assert state.occupations.dtype == np.int8
            assert state.occupations.tolist() == [[24, 0, 0, 24]]
            assert abs(state.amplitude(row)) == 1.0

    @pytest.mark.parametrize("count", [25, 128, 256, 257, 2**40, -1])
    def test_amplitude_is_zero_past_the_cap(self, count):
        """257 would wrap to the int8 bytes of 1 and find that row."""
        rows = {FockState(2, (1, 0), (0, 1)): 0.6, FockState(2, (0, 1), (0, 1)): 0.8j}
        state = SuperposedState(rows, 2)
        assert state.amplitude(FockState(2, (count, 0), (0, 1))) == 0j
        assert state.amplitude(FockState(2, (1, 0), (0, count))) == 0j
        assert state.amplitude(FockState(2, (1, 0), (0, 1))) == 0.6

    @pytest.mark.parametrize("count", [25, 127, 256, 2**40, -1, -256])
    def test_wide_product_table_out_of_range_refused(self, count):
        """A count past int8 would wrap in the cast, so none reaches it."""
        table = np.array([[1, 0, 0, 1], [0, 1, count, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="^photon counts must be 0 to 24$"):
            SuperposedState(Product((table, [0.6, 0.8])), 2)

    def test_every_built_state_holds_int8(self):
        u = linalg.dft_multiport(3)
        inp = FockState(3, (2, 1, 0), (0, 0, 1))
        out = evolve(u, inp)
        states = {
            "evolve": out,
            "oracle": oracle_evolve(u, inp),
            "conditional": postselect(out, CoincidencePattern.one_per_port()).conditional,
            "empty conditional": postselect(
                out, CoincidencePattern.port_counts({0: 5})).conditional,
            "path W": w_state_path(5),
            "polarization W": w_state_polarization(5),
            "target": target_from_coefficients([0.6, 0.8j], "path"),
            "mapping": SuperposedState(dict(out), 3),
            "list": SuperposedState(list(out), 3),
            "empty": SuperposedState({}, 3, require_normalized=False),
            "json": SuperposedState.from_json_obj(out.to_json_obj()),
            "int64 product": _int64_copy(out),
        }
        for report in (run_polarization_w(4), run_path_w(5, 2), run_designed_path([0.6, 0.8])):
            states[report.scheme_kind] = report.output_state
        assert states["empty conditional"].occupations.shape == (0, 6)
        for name, state in states.items():
            assert state.occupations.dtype == np.int8, name


class TestWStates:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_path_w(self, n):
        state = w_state_path(n)
        assert len(state) == n
        for p in range(n):
            amp = state.amplitude(single_photon_state(p, H, n))
            assert abs(amp - 1 / math.sqrt(n)) <= 1e-15
        assert abs(state.norm_sq() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polarization_w(self, n):
        state = w_state_polarization(n)
        assert len(state) == n
        for s, amp in state:
            assert s.photons_per_pol() == {H: n - 1, V: 1}
            assert s.spatial_counts() == (1,) * n
            assert abs(amp - 1 / math.sqrt(n)) <= 1e-15

    @pytest.mark.parametrize("ctor", [w_state_path, w_state_polarization])
    def test_rejects_n_below_2(self, ctor):
        with pytest.raises(ValueError):
            ctor(1)


class TestTargetFromCoefficients:
    def test_clone_state_ordering(self):
        coeffs = [math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)]
        state = target_from_coefficients(coeffs, "path")
        # first coefficient multiplies the |001>-like term (photon at the last port)
        assert abs(state.amplitude(single_photon_state(2, H, 3)) - coeffs[0]) <= 1e-15
        assert abs(state.amplitude(single_photon_state(1, H, 3)) - coeffs[1]) <= 1e-15
        assert abs(state.amplitude(single_photon_state(0, H, 3)) - coeffs[2]) <= 1e-15

    def test_basis_coefficient(self):
        state = target_from_coefficients([1.0, 0.0, 0.0], "path")
        assert len(state) == 1
        assert abs(state.amplitude(single_photon_state(2, H, 3)) - 1.0) <= 1e-15

    def test_uniform_polarization_matches_constructor(self):
        state = target_from_coefficients(np.full(3, 1 / math.sqrt(3)), "polarization")
        ref = w_state_polarization(3)
        assert state.allclose(ref, tol=1e-12)

    def test_uniform_path_matches_constructor(self):
        state = target_from_coefficients(np.full(4, 0.5), "path")
        assert state.allclose(w_state_path(4), tol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            target_from_coefficients([1.0, 1.0], "path")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            target_from_coefficients([1.0, 0.0], "spin")


class TestProbabilities:
    def test_correctly_rounded_squares(self):
        # Uniform magnitudes in [1e-6, 1), where pow(x, 2) and x * x disagree about once in
        # 1,200 under glibc 2.36, and complex amplitudes whose abs() rounds first.
        rng = np.random.default_rng(0)
        amps = rng.uniform(1e-6, 1, 4000).tolist()
        amps += (rng.normal(size=4000) + 1j * rng.normal(size=4000)).tolist()
        got = probabilities(amps)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (8000,)
        assert list(map(float.hex, got.tolist())) == [float.hex(float(Fraction(abs(a)) ** 2))
                                                      for a in amps]
