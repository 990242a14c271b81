"""
The Hopf link as a pair of primes in the three-sphere
======================================================

Two unknots with linking number one, no surgery at all. The ambient
manifold is S^3, whose first homology vanishes, so every divisor bounds
and the whole dictionary can be watched in the smallest possible example.
"""

from idelink import (
    Divisor,
    complement_homology,
    decomposition_data,
    delta_from_divisor,
    global_pairing,
    hilbert_symbol,
    idele_class_group,
    kummer_cover,
    load_and_validate,
    make_cover,
    presentation_from_dict,
    principal_lattice_basis,
)

hopf = load_and_validate(
    presentation_from_dict(
        {
            "surgery": {"components": [], "matrix": []},
            "link": {
                "components": ["K1", "K2"],
                "lk_with_surgery": [[], []],
                "lk_mutual": [[0, 1], [1, 0]],
            },
        }
    )
)

print("H1 of the ambient manifold:", hopf.h1.invariant_factors or "trivial")
print("linking number lk(K1, K2) =", hopf.linking_number("K1", "K2"))

# The complement of both components is a torus: H1 is free on the two
# meridians, and each longitude is homologous to the other meridian.
comp = complement_homology(hopf)
print("\nH1 of the complement:", comp.invariant_factors)

# K1 bounds a disk punctured once by K2. Its boundary idele records the
# longitude at K1 and minus a meridian at K2.
d1 = delta_from_divisor(comp, Divisor.of({"K1": 1}))
d2 = delta_from_divisor(comp, Divisor.of({"K2": 1}))
print("\nboundary of the disk spanned by K1:", d1.to_dict())
print("boundary of the disk spanned by K2:", d2.to_dict())

# Reciprocity: the two bounding ideles pair to zero, through a +1 at K1
# canceling a -1 at K2. The Hilbert symbols show the local pieces.
print("\nglobal pairing of the two boundaries:", global_pairing(d1, d2))
print("local symbol at K1 (mod 3):", hilbert_symbol(d1, d2, "K1", 3))
print("local symbol at K2 (mod 3):", hilbert_symbol(d1, d2, "K2", 3))

# The principal ideles form a rank-two lattice inside the rank-four idele
# group, so the idele class group keeps two free factors.
basis = principal_lattice_basis(comp)
print("\nprincipal lattice basis:")
for b in basis:
    print("   ", b.to_dict())
print("idele class group invariants:", idele_class_group(comp).class_invariants)

# A double cover rotating the meridian of K1: K1 is ramified (e = 2),
# K2 is inert (f = 2). e * f * g is the covering degree at every prime.
cover = make_cover(comp, (2,), [[1], [0]])
for k in ("K1", "K2"):
    dd = decomposition_data(cover, k)
    print(
        f"decomposition of {k}: e={dd.ramification_index}"
        f" f={dd.residue_degree} g={dd.component_count}"
    )

# The same cover arises as the Kummer cover of the divisor 1*K1 mod 2,
# and its branch locus is exactly {K1}.
kc = kummer_cover(comp, Divisor.of({"K1": 1}), 2)
print("\nKummer cover of 1*K1 mod 2:", kc.cover.to_dict())
print("branch locus:", list(kc.branch_locus))
