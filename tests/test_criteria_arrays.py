"""The array form of the D/F criteria against the scalar formulas, bit for bit.

References are the scalar `f_evaluate`, the literal per-block D loop on
numpy complex scalars, an F enumeration over explicit (sum, xor) pair
classes, the JSON document built as plain dicts, and the scalar
`vanishing` test.  Floats are compared as bit patterns, so signed zeros
count.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations

import numpy as np
import pytest

from sloccinv import (
    achieved_pair_sums,
    cluster_c,
    complement,
    criteria_signature,
    f_enumerate,
    f_evaluate,
    ghz,
    new_state,
    random_state,
    tensor,
    vanishing,
    w_state,
)
from sloccinv.cli import _dumps, _signature_doc, _signature_slots


def render(doc, sig):
    """doc printed as the CLI prints a document holding sig's D and F entries, less the newline."""
    with redirect_stdout(io.StringIO()) as out:
        _dumps(doc, *_signature_slots(sig))
    text = out.getvalue()
    assert text.endswith("\n")
    return text[:-1]


def lattice_state(n, seed):
    """Amplitudes from {0, +-1, +-1j, 1/2 - 1/2j}, whose exact products give signed zeros."""
    rng = np.random.default_rng(seed)
    return new_state(n, rng.choice([0, 1, -1, 1j, -1j, 0.5 - 0.5j], 1 << n))


GOLDEN = {
    "cluster_c": cluster_c(),
    "ghz3_x_w3": tensor(ghz(3), w_state(3)),
    "complement_w6": complement(w_state(6)),
    **{f"ghz{n}": ghz(n) for n in (4, 5, 6)},
    **{f"w{n}": w_state(n) for n in (4, 5, 6)},
    **{f"random{n}": random_state(n, 700 + n) for n in (4, 5, 6, 7)},
    "random5_scaled": new_state(5, (2.5 - 1.5j) * random_state(5, 11).amplitudes),
    **{f"lattice{n}_{seed}": lattice_state(n, seed)
       for n, seed in ((4, 5), (5, 3), (5, 17))},
}
F_SAMPLE_STRIDE = {7: 97}  # n=7 has 1.3 million tuples; check a stride of them


def bits(values) -> np.ndarray:
    """The (re, im) bit patterns of complex values, signed zeros kept."""
    return np.asarray(list(values), dtype=np.complex128).view(np.uint64)


def scalar_d_values(s):
    """The literal per-block D loop on numpy complex scalars."""
    a = s.amplitudes
    big = 1 << s.n
    out = []
    for i in range(1 << (s.n - 4)):
        lo = a[8 * i: 8 * i + 8]
        hi = a[big - 8 * i - 8: big - 8 * i]
        d1 = ((lo[1] * lo[4] - lo[0] * lo[5]) * (hi[3] * hi[6] - hi[2] * hi[7])
              - (lo[3] * lo[6] - lo[2] * lo[7]) * (hi[1] * hi[4] - hi[0] * hi[5]))
        d2 = ((lo[4] * lo[7] - lo[5] * lo[6]) * (hi[0] * hi[3] - hi[1] * hi[2])
              - (lo[0] * lo[3] - lo[1] * lo[2]) * (hi[4] * hi[7] - hi[5] * hi[6]))
        d3 = ((lo[3] * lo[5] - lo[1] * lo[7]) * (hi[2] * hi[4] - hi[0] * hi[6])
              - (lo[2] * lo[4] - lo[0] * lo[6]) * (hi[3] * hi[5] - hi[1] * hi[7]))
        out += [complex(d1), complex(d2), complex(d3)]
    return out


def class_f_enumerate(n):
    """Group all pairs u < v by (u + v, u ^ v) and combine each class four at a time."""
    size = 1 << n
    classes = {}
    for u in range(size):
        for v in range(u + 1, size):
            classes.setdefault((u + v, u ^ v), []).append((u, v))
    found = []
    for (total, _), pairs in classes.items():
        for quad in combinations(pairs, 4):
            i, j, k, l, p, q, r, s = (u for pair in quad for u in pair)
            d = 1 if total % 2 else 2
            if j - d >= 0 and q - d >= 0 and l + d < size and s + d < size:
                found.append([i, j, k, l, p, q, r, s])
    found.sort(key=lambda t: (t[0] + t[1], t[0], t[2], t[4], t[6]))
    return found


def dict_signature(sig):
    """The signature's JSON document built as plain dicts, one entry at a time."""
    def pair(re, im):
        return [float(re), float(im)]

    return {
        "n": sig.n,
        "tol": sig.tol,
        "d_criteria": [{"i": i, **{f"d{slot + 1}": pair(sig.d.re[i, slot], sig.d.im[i, slot])
                                   for slot in range(3)},
                        "vanishing": [bool(v) for v in sig.d.vanishing[i]]}
                       for i in range(len(sig.d.re))],
        "f_criteria": [{"subscripts": [int(u) for u in sig.f_tuples[row]],
                        "value": pair(sig.f.re[row], sig.f.im[row]),
                        "vanishing": bool(sig.f.vanishing[row])}
                       for row in range(len(sig.f_tuples))] if sig.f_included else None,
        "f_included": sig.f_included,
        "note": ("F tuples whose shifted subscripts (j-1/l+1/q-1/s+1 for odd i+j, "
                 "j-2/l+2/q-2/s+2 for even i+j) fall outside [0, 2^n - 1] are excluded."),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_d_values_and_masks_match_scalar_loop(name):
    s = GOLDEN[name]
    sig = criteria_signature(s, include_f=False)
    expected = scalar_d_values(s)
    got = [complex(re, im) for re, im in zip(sig.d.re.ravel(), sig.d.im.ravel())]
    np.testing.assert_array_equal(bits(got), bits(expected))
    nsq = s.norm_squared()
    assert sig.d.vanishing.ravel().tolist() == \
        [vanishing(z, nsq, sig.tol, 4) for z in expected]
    assert sig.d.magnitude.ravel().tolist() == [abs(z) for z in expected]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_f_values_and_masks_match_f_evaluate(name):
    s = GOLDEN[name]
    sig = criteria_signature(s, include_f=True)
    stride = F_SAMPLE_STRIDE.get(s.n, 1)
    rows = range(0, len(sig.f_tuples), stride)
    keys = [tuple(sig.f_tuples[r].tolist()) for r in rows]
    expected = [f_evaluate(s, t) for t in keys]
    got = [complex(sig.f.re[r], sig.f.im[r]) for r in rows]
    np.testing.assert_array_equal(bits(got), bits(expected))
    nsq = s.norm_squared()
    assert [bool(sig.f.vanishing[r]) for r in rows] == \
        [vanishing(z, nsq, sig.tol, 4) for z in expected]
    if stride == 1:
        assert sig.f_tuples is f_enumerate(s.n)


def test_signed_zeros_are_exercised():
    # -0.0 parts in the F values, so the bit checks see signed zeros; lattice4_5 and
    # lattice5_17 also hold heads that are exactly zero, which numpy squares to +0
    for name in ("cluster_c", "lattice5_3"):
        sig = criteria_signature(GOLDEN[name])
        parts = np.concatenate([sig.f.re, sig.f.im])
        assert np.any((parts == 0) & np.signbit(parts)), name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_enumeration_matches_class_enumeration(n):
    tuples = f_enumerate(n).tolist()
    assert tuples == class_f_enumerate(n)
    assert achieved_pair_sums(n) == sorted({t[0] + t[1] for t in tuples})


def test_tuple_counts():
    assert len(f_enumerate(4)) == 78
    assert len(f_enumerate(6)) == 62160


@pytest.mark.parametrize("name", ["cluster_c", "ghz4", "w5", "random5_scaled", "random6"])
def test_rendered_report_matches_dict_json(name):
    sig = criteria_signature(GOLDEN[name])
    expected = dict_signature(sig)
    assert render(_signature_doc(sig), sig) == json.dumps(expected, indent=2)
    nested = {"invariants": {"n": sig.n}, "criteria": expected, "tau": 0.5}
    slotted = dict(nested, criteria=_signature_doc(sig))
    assert render(slotted, sig) == json.dumps(nested, indent=2)


def test_report_without_f_entries_is_plain_json():
    sig = criteria_signature(random_state(7, 1))
    doc = _signature_doc(sig)
    assert doc["f_criteria"] is None
    assert render(doc, sig) == json.dumps(dict_signature(sig), indent=2)
