"""Pinned float.hex values of the optimisation-based measures on the corpus.

Every corpus entry with a target T and two or three predictors (families
at r = 0.25 and 0.5): ``i_cap_d`` with singleton sources, ``s_dep``'s S
and I_r, and ``i_cup_vk``'s value and lower bound with singleton sources
and, on three predictors, with {Y1,Y2},{Y2,Y3}.  The table was computed
by the two-phase simplex that re-ran phase 1 per objective and by the
dict-of-tuples pmf core, so a change to the LP layer or the pmf core that
moves any bit fails here.

``WB_ATOMS`` pins every ``wb_pid`` atom on the same entries, as computed
when the lattice was a set of (i, j) pairs rebuilt on every call.

``CI_PINS`` pins ``i_cup_ci`` and ``s_ci`` on the same entries, with
singleton sources and, on three predictors, with {Y1,Y2},{Y2,Y3}, as
computed when every partition was built as a ``CiPartition`` and scored
on its own.  Most entries have zero cells, so their surrogates do too.
"""

import pytest

from cipid import (
    SourceCollection,
    VariableSet,
    canonical,
    ci_synergy,
    ci_union_information,
    degradation_redundancy,
    dep_synergy,
    vk_union_information,
    wb_pid,
)

PINNED = {
    ('XOR', None): {
        'i_cap_d': '0x0.0p+0',
        'S': '0x1.0000000000000p+0',
        'I_r': '0x0.0p+0',
        'vk': ('0x0.0p+0', '0x0.0p+0'),
    },
    ('AND', None): {
        'i_cap_d': '0x1.3ebfb1520c7c6p-2',
        'S': '0x1.14ea9070aed40p-2',
        'I_r': '0x1.9f5fd8a9063e4p-1',
        'vk': ('0x1.3ebfb153d69dcp-2', '0x1.3ebfb1520c7c7p-2'),
    },
    ('COPY', None): {
        'i_cap_d': '0x0.0p+0',
        'S': '0x0.0p+0',
        'I_r': '0x1.0000000000000p+1',
        'vk': ('0x1.0000000000000p+1', '0x1.0000000000000p+1'),
    },
    ('TWEAKED_COPY', None): {
        'i_cap_d': '0x0.0p+0',
        'S': '0x0.0p+0',
        'I_r': '0x1.95c01a39fbd68p+0',
        'vk': ('0x1.95c01a39fbd67p+0', '0x1.95c01a39fbd67p+0'),
    },
    ('BOOM', None): {
        'i_cap_d': '0x1.493da4a621201p-2',
        'S': '0x1.67ae5b02684a0p-4',
        'I_r': '0x1.2035627253408p+0',
        'vk': ('0x1.00000000072a1p+0', '0x1.fffffffffffffp-1'),
    },
    ('ADAPTED_REDUCED_OR', 0.25): {
        'i_cap_d': '0x1.3ebfb1520c7c6p-2',
        'S': '0x1.585079e22b9d0p-3',
        'I_r': '0x1.6f0fc4fc34080p-1',
        'vk': ('0x1.3ebfb1539b640p-2', '0x1.3ebfb1520c7c8p-2'),
    },
    ('ADAPTED_REDUCED_OR', 0.5): {
        'i_cap_d': '0x1.3ebfb1520c7c6p-2',
        'S': '0x0.0p+0',
        'I_r': '0x1.18fba684fe764p-1',
        'vk': ('0x1.3ebfb1539b640p-2', '0x1.3ebfb1520c7c8p-2'),
    },
    ('TARGET_MONO_AND', None): {
        'i_cap_d': '0x1.3ebfb1520c7c6p-2',
        'vk': ('0x1.9f5fd8a9063e2p-1', '0x1.9f5fd8a9063e2p-1'),
        'vk_overlap': ('0x1.9f5fd8a9063e3p-1', '0x1.9f5fd8a9063e3p-1'),
    },
    ('TARGET_MONO_CI', None): {
        'i_cap_d': '0x1.2d0eefa37684bp-2',
        'vk': ('0x1.d7d4aaf2250bfp-1', '0x1.d7d4aaf2250bep-1'),
        'vk_overlap': ('0x1.d7d4aaf2250bep-1', '0x1.d7d4aaf2250bep-1'),
    },
    ('ADAPTED_XOR', 0.25): {
        'i_cap_d': '0x1.fcf3def4bd45ep-4',
        'S': '0x1.db3f73c585790p-2',
        'I_r': '0x1.1b9e75ba675c0p-2',
        'vk': ('0x1.fcf3defa166cep-4', '0x1.fcf3def4bd460p-4'),
    },
    ('ADAPTED_XOR', 0.5): {
        'i_cap_d': '0x1.8fba684fe7644p-5',
        'S': '0x1.3858ccc6f168cp-1',
        'I_r': '0x1.9ee6f7366bb60p-4',
        'vk': ('0x1.8fba6854bafc2p-5', '0x1.8fba684fe7654p-5'),
    },
    ('ADAPTED_XOR_V2', 0.25): {
        'i_cap_d': '0x1.42c7cf387991fp-5',
        'S': '0x1.8acb6606dcf74p-2',
        'I_r': '0x1.8a056ba4493e0p-3',
        'vk': ('0x1.42c7cf3c41b78p-5', '0x1.42c7cf3879919p-5'),
    },
    ('ADAPTED_XOR_V2', 0.5): {
        'i_cap_d': '0x1.d72744c29522cp-7',
        'S': '0x1.ece9d42e96804p-2',
        'I_r': '0x1.2817bf63f4120p-4',
        'vk': ('0x1.d7274539b648ap-7', '0x1.d72744c2951f3p-7'),
    },
    ('RDNXOR', None): {
        'i_cap_d': '0x1.0000000000000p+0',
        'S': '0x1.0000000000000p+0',
        'I_r': '0x1.0000000000000p+0',
        'vk': ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    },
    ('RDNUNQXOR', None): {
        'i_cap_d': '0x1.0000000000000p+0',
        'S': '0x1.0000000000000p+0',
        'I_r': '0x1.8000000000000p+1',
        'vk': ('0x1.8000000000000p+1', '0x1.8000000000000p+1'),
    },
    ('XORDUPLICATE', None): {
        'i_cap_d': '0x0.0p+0',
        'vk': ('0x0.0p+0', '0x0.0p+0'),
        'vk_overlap': ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    },
    ('ANDDUPLICATE', None): {
        'i_cap_d': '0x1.3ebfb1520c7c6p-2',
        'vk': ('0x1.3ebfb158a774cp-2', '0x1.3ebfb1520c7c7p-2'),
        'vk_overlap': ('0x1.9f5fd8a9063e3p-1', '0x1.9f5fd8a9063e3p-1'),
    },
    ('XORLOSES', None): {
        'i_cap_d': '0x0.0p+0',
        'vk': ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        'vk_overlap': ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    },
    ('XORMULTICOAL', None): {
        'i_cap_d': '0x0.0p+0',
        'vk': ('0x0.0p+0', '0x0.0p+0'),
        'vk_overlap': ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    },
}


@pytest.mark.parametrize("name, r", list(PINNED))
def test_pinned_values(name, r):
    want = PINNED[name, r]
    d = canonical(name, r)
    t = VariableSet.of(d.index_of("T"))
    src = [i for i in range(d.n_vars) if i not in t]
    single = SourceCollection.singletons(src)
    got = {"i_cap_d": degradation_redundancy(d, t, single).value.hex()}
    if len(src) == 2:
        res = dep_synergy(d, t)
        got["S"], got["I_r"] = res["S"].hex(), res["I_r"].hex()
    rep = vk_union_information(d, t, single)
    got["vk"] = (rep.value.hex(), rep.lower.hex())
    if len(src) == 3:
        rep = vk_union_information(d, t, SourceCollection.of(src[:2], src[1:]))
        got["vk_overlap"] = (rep.value.hex(), rep.lower.hex())
    assert got == want


WB_ATOMS = {
    ('XOR', None): {
        '{Y1}{Y2}': '0x0.0p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.0000000000000p+0',
    },
    ('AND', None): {
        '{Y1}{Y2}': '0x1.3ebfb1520c7c6p-2',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.0000000000000p-1',
    },
    ('COPY', None): {
        '{Y1}{Y2}': '0x1.0000000000000p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.0000000000000p+0',
    },
    ('TWEAKED_COPY', None): {
        '{Y1}{Y2}': '0x1.2b803473f7ad2p-1',
        '{Y1}': '0x1.5555555555554p-2',
        '{Y2}': '0x1.5555555555554p-2',
        '{Y1,Y2}': '0x1.5555555555554p-2',
    },
    ('BOOM', None): {
        '{Y1}{Y2}': '0x1.fffffffffffffp-2',
        '{Y1}': '0x1.5555555555556p-3',
        '{Y2}': '0x1.5555555555552p-3',
        '{Y1,Y2}': '0x1.2b803473f7ad4p-2',
    },
    ('ADAPTED_REDUCED_OR', 0.25): {
        '{Y1}{Y2}': '0x1.3ebfb1520c7c5p-2',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.9f5fd8a9063e3p-2',
    },
    ('ADAPTED_REDUCED_OR', 0.5): {
        '{Y1}{Y2}': '0x1.3ebfb1520c7c5p-2',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.e66f376fe0e0ap-3',
    },
    ('TARGET_MONO_AND', None): {
        '{Z}{Y1}{Y2}': '0x1.3ebfb1520c7c6p-2',
        '{Z}{Y1}': '0x0.0p+0',
        '{Z}{Y2}': '0x0.0p+0',
        '{Y1}{Y2}': '0x0.0p+0',
        '{Z}{Y1,Y2}': '0x1.0000000000000p-1',
        '{Y1}{Z,Y2}': '0x0.0p+0',
        '{Y2}{Z,Y1}': '0x0.0p+0',
        '{Z}': '0x0.0p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Z,Y1}{Z,Y2}{Y1,Y2}': '0x0.0p+0',
        '{Z,Y1}{Z,Y2}': '0x0.0p+0',
        '{Z,Y1}{Y1,Y2}': '0x0.0p+0',
        '{Z,Y2}{Y1,Y2}': '0x0.0p+0',
        '{Z,Y1}': '0x0.0p+0',
        '{Z,Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x0.0p+0',
        '{Z,Y1,Y2}': '0x0.0p+0',
    },
    ('TARGET_MONO_CI', None): {
        '{Z}{Y1}{Y2}': '0x1.64935e63dd346p-2',
        '{Z}{Y1}': '0x1.07119743df4cap-1',
        '{Z}{Y2}': '0x0.0p+0',
        '{Y1}{Y2}': '0x0.0p+0',
        '{Z}{Y1,Y2}': '0x1.f37bb4b6ec600p-7',
        '{Y1}{Z,Y2}': '0x1.45578b2786a40p-7',
        '{Y2}{Z,Y1}': '0x0.0p+0',
        '{Z}': '0x0.0p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Z,Y1}{Z,Y2}{Y1,Y2}': '0x1.196177cdd5900p-5',
        '{Z,Y1}{Z,Y2}': '0x0.0p+0',
        '{Z,Y1}{Y1,Y2}': '0x0.0p+0',
        '{Z,Y2}{Y1,Y2}': '0x0.0p+0',
        '{Z,Y1}': '0x0.0p+0',
        '{Z,Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x0.0p+0',
        '{Z,Y1,Y2}': '0x0.0p+0',
    },
    ('ADAPTED_XOR', 0.25): {
        '{Y1}{Y2}': '0x1.fcf3def4bd45dp-4',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.234f13e88dfb9p-1',
    },
    ('ADAPTED_XOR', 0.5): {
        '{Y1}{Y2}': '0x1.8fba684fe7652p-5',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.4fafec54831f1p-1',
    },
    ('ADAPTED_XOR_V2', 0.25): {
        '{Y1}{Y2}': '0x1.42c7cf387992bp-5',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.b130030f2dba8p-2',
    },
    ('ADAPTED_XOR_V2', 0.5): {
        '{Y1}{Y2}': '0x1.d72744c2951fcp-7',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.fb5a5985ad814p-2',
    },
    ('RDNXOR', None): {
        '{Y1}{Y2}': '0x1.0000000000000p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.0000000000000p+0',
    },
    ('RDNUNQXOR', None): {
        '{Y1}{Y2}': '0x1.0000000000000p+1',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y1,Y2}': '0x1.0000000000000p+1',
    },
    ('XORDUPLICATE', None): {
        '{Y1}{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2}': '0x0.0p+0',
        '{Y1}{Y3}': '0x0.0p+0',
        '{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2,Y3}': '0x0.0p+0',
        '{Y2}{Y1,Y3}': '0x0.0p+0',
        '{Y3}{Y1,Y2}': '0x0.0p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}': '0x1.0000000000000p+0',
        '{Y1,Y2}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}': '0x0.0p+0',
        '{Y1,Y3}': '0x0.0p+0',
        '{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2,Y3}': '0x0.0p+0',
    },
    ('ANDDUPLICATE', None): {
        '{Y1}{Y2}{Y3}': '0x1.3ebfb1520c7c6p-2',
        '{Y1}{Y2}': '0x0.0p+0',
        '{Y1}{Y3}': '0x0.0p+0',
        '{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2,Y3}': '0x0.0p+0',
        '{Y2}{Y1,Y3}': '0x0.0p+0',
        '{Y3}{Y1,Y2}': '0x0.0p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}': '0x1.0000000000000p-1',
        '{Y1,Y2}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}': '0x0.0p+0',
        '{Y1,Y3}': '0x0.0p+0',
        '{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2,Y3}': '0x0.0p+0',
    },
    ('XORLOSES', None): {
        '{Y1}{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2}': '0x0.0p+0',
        '{Y1}{Y3}': '0x0.0p+0',
        '{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2,Y3}': '0x0.0p+0',
        '{Y2}{Y1,Y3}': '0x0.0p+0',
        '{Y3}{Y1,Y2}': '0x1.0000000000000p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}': '0x0.0p+0',
        '{Y1,Y3}': '0x0.0p+0',
        '{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2,Y3}': '0x0.0p+0',
    },
    ('XORMULTICOAL', None): {
        '{Y1}{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2}': '0x0.0p+0',
        '{Y1}{Y3}': '0x0.0p+0',
        '{Y2}{Y3}': '0x0.0p+0',
        '{Y1}{Y2,Y3}': '0x0.0p+0',
        '{Y2}{Y1,Y3}': '0x0.0p+0',
        '{Y3}{Y1,Y2}': '0x0.0p+0',
        '{Y1}': '0x0.0p+0',
        '{Y2}': '0x0.0p+0',
        '{Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y1,Y3}{Y2,Y3}': '0x1.0000000000000p+0',
        '{Y1,Y2}{Y1,Y3}': '0x0.0p+0',
        '{Y1,Y2}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y3}{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2}': '0x0.0p+0',
        '{Y1,Y3}': '0x0.0p+0',
        '{Y2,Y3}': '0x0.0p+0',
        '{Y1,Y2,Y3}': '0x0.0p+0',
    },
}


@pytest.mark.parametrize("name, r", list(WB_ATOMS))
def test_pinned_wb_atoms(name, r):
    d = canonical(name, r)
    atoms = wb_pid(d, VariableSet.of(d.index_of("T")))
    assert {label: value.hex() for label, value in atoms.items()} == WB_ATOMS[name, r]


CI_PINS = {
    ('XOR', None): {
        'i_cup_ci': '0x0.0p+0',
        's_ci': '0x1.0000000000000p+0',
    },
    ('AND', None): {
        'i_cup_ci': '0x1.14ea9070aed42p-1',
        's_ci': '0x1.14ea9070aed44p-2',
    },
    ('COPY', None): {
        'i_cup_ci': '0x1.0000000000000p+1',
        's_ci': '0x0.0p+0',
    },
    ('TWEAKED_COPY', None): {
        'i_cup_ci': '0x1.95c01a39fbd68p+0',
        's_ci': '0x0.0p+0',
    },
    ('BOOM', None): {
        'i_cup_ci': '0x1.09ba7cc22cbbcp+0',
        's_ci': '0x1.67ae5b02684c0p-4',
    },
    ('ADAPTED_REDUCED_OR', 0.25): {
        'i_cup_ci': '0x1.18fba684fe764p-1',
        's_ci': '0x1.585079e22b9d0p-3',
    },
    ('ADAPTED_REDUCED_OR', 0.5): {
        'i_cup_ci': '0x1.18fba684fe764p-1',
        's_ci': '0x0.0p+0',
    },
    ('TARGET_MONO_AND', None): {
        'i_cup_ci': '0x1.9f5fd8a9063e4p-1',
        's_ci': '0x0.0p+0',
        'i_cup_ci_overlap': '0x1.9f5fd8a9063e4p-1',
        's_ci_overlap': '0x0.0p+0',
    },
    ('TARGET_MONO_CI', None): {
        'i_cup_ci': '0x1.d7d4aaf2250c0p-1',
        's_ci': '0x0.0p+0',
        'i_cup_ci_overlap': '0x1.d7d4aaf2250c0p-1',
        's_ci_overlap': '0x0.0p+0',
    },
    ('ADAPTED_XOR', 0.25): {
        'i_cup_ci': '0x1.d53757918ba08p-3',
        's_ci': '0x1.db3f73c585784p-2',
    },
    ('ADAPTED_XOR', 0.5): {
        'i_cup_ci': '0x1.8296309481650p-4',
        's_ci': '0x1.3858ccc6f168ep-1',
    },
    ('ADAPTED_XOR_V2', 0.25): {
        'i_cup_ci': '0x1.3af65bbd7fd90p-4',
        's_ci': '0x1.8acb6606dcf68p-2',
    },
    ('ADAPTED_XOR_V2', 0.5): {
        'i_cup_ci': '0x1.d29bf7d2baa00p-6',
        's_ci': '0x1.ece9d42e96804p-2',
    },
    ('RDNXOR', None): {
        'i_cup_ci': '0x1.0000000000000p+0',
        's_ci': '0x1.0000000000000p+0',
    },
    ('RDNUNQXOR', None): {
        'i_cup_ci': '0x1.8000000000000p+1',
        's_ci': '0x1.0000000000000p+0',
    },
    ('XORDUPLICATE', None): {
        'i_cup_ci': '0x0.0p+0',
        's_ci': '0x1.0000000000000p+0',
        'i_cup_ci_overlap': '0x1.0000000000000p+0',
        's_ci_overlap': '0x0.0p+0',
    },
    ('ANDDUPLICATE', None): {
        'i_cup_ci': '0x1.14ea9070aed42p-1',
        's_ci': '0x1.14ea9070aed44p-2',
        'i_cup_ci_overlap': '0x1.9f5fd8a9063e4p-1',
        's_ci_overlap': '0x0.0p+0',
    },
    ('XORLOSES', None): {
        'i_cup_ci': '0x1.0000000000000p+0',
        's_ci': '0x0.0p+0',
        'i_cup_ci_overlap': '0x1.0000000000000p+0',
        's_ci_overlap': '0x0.0p+0',
    },
    ('XORMULTICOAL', None): {
        'i_cup_ci': '0x0.0p+0',
        's_ci': '0x1.0000000000000p+0',
        'i_cup_ci_overlap': '0x1.0000000000000p+0',
        's_ci_overlap': '0x0.0p+0',
    },
}


@pytest.mark.parametrize("name, r", list(CI_PINS))
def test_pinned_ci_values(name, r):
    d = canonical(name, r)
    t = VariableSet.of(d.index_of("T"))
    src = [i for i in range(d.n_vars) if i not in t]
    colls = {"": SourceCollection.singletons(src)}
    if len(src) == 3:
        colls["_overlap"] = SourceCollection.of(src[:2], src[1:])
    got = {}
    for suffix, coll in colls.items():
        got["i_cup_ci" + suffix] = ci_union_information(d, t, coll).hex()
        got["s_ci" + suffix] = ci_synergy(d, t, coll).hex()
    assert got == CI_PINS[name, r]
