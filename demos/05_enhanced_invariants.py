"""Image and polynomial enhancements, and a pair of knots they separate.

Every labeling generates a subbirack -- the closure of its used labels.
Recording the image's size gives the image-enhanced invariant; recording
the image's four-variable subbirack polynomial (which sees not just the
size but how the image sits inside the birack) gives the strongest
enhancement here, phi_rho.
"""

from biracks import (
    all_subbiracks,
    birack_polynomial,
    from_matrix,
    parse_gauss,
    phi_image,
    phi_integral,
    phi_rho,
    subbirack_polynomial,
    tsr_birack,
)

# --- image enhancement on the trefoil ---------------------------------------
b3 = tsr_birack(3, 1, 2, 2)  # B(x,y) = (y+2x, 2x) on Z_3
trefoil = parse_gauss("O1+,U2+,O3+,U1+,O2+,U3+")
unknot = parse_gauss("")
print("trefoil over tsr(3,1,2,2):")
print("  phi_Z: ", phi_integral(trefoil, b3))
print("  phi_Im:", phi_image(trefoil, b3), " (one trivial labeling, eight onto Z_3)")
print("unknot: phi_Im =", phi_image(unknot, b3))
print()

# --- subbirack polynomials ---------------------------------------------------
b4 = from_matrix(4, [
    [2, 2, 1, 1, 2, 2, 1, 1],
    [1, 1, 2, 2, 1, 1, 2, 2],
    [3, 4, 3, 3, 4, 3, 4, 4],
    [4, 3, 4, 4, 3, 4, 3, 3],
])
print("4-element birack with two proper subbiracks:")
print("  subbiracks:", [sorted(x + 1 for x in s) for s in all_subbiracks(b4)])
print("  birack polynomial:", birack_polynomial(b4))
for sub in ({0, 1}, {2, 3}):
    print(f"  polynomial of {{{', '.join(str(x+1) for x in sorted(sub))}}}:",
          subbirack_polynomial(b4, sub))
print("  phi_rho(unknot):", phi_rho(unknot, b4))
print("  (its six unknot labelings split 4 : 2 between the two subbiracks)")
print()

# --- a 10-element birack separating two knots -------------------------------
# One block is the dihedral quandle on Z_5, the other a linear quandle with
# t = 2; phi_Z sees 30 labelings for both knots below, but phi_rho sees
# which block the nontrivial labelings land in.
b10 = from_matrix(10, [
    [1, 3, 5, 2, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [5, 2, 4, 1, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [4, 1, 3, 5, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
    [3, 5, 2, 4, 1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
    [2, 4, 1, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
    [7, 7, 7, 7, 7, 6, 10, 9, 8, 7, 8, 8, 8, 8, 8, 6, 6, 6, 6, 6],
    [9, 9, 9, 9, 9, 8, 7, 6, 10, 9, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7],
    [6, 6, 6, 6, 6, 10, 9, 8, 7, 6, 9, 9, 9, 9, 9, 8, 8, 8, 8, 8],
    [8, 8, 8, 8, 8, 7, 6, 10, 9, 8, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9],
    [10, 10, 10, 10, 10, 9, 8, 7, 6, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
])
cinquefoil = parse_gauss("O1+,U2+,O3+,U4+,O5+,U1+,O2+,U3+,O4+,U5+")
stevedore = parse_gauss(
    "O1+,U2+,U4-,O6+,U7-,O5-,U6+,U1+,O2+,O3+,U5-,O7-,U3+,O4-"
)
print("10-element birack (rank 1):")
print("  phi_Z(cinquefoil):", phi_integral(cinquefoil, b10))
print("  phi_Z(stevedore): ", phi_integral(stevedore, b10))
rho_cinquefoil = phi_rho(cinquefoil, b10)
rho_stevedore = phi_rho(stevedore, b10)
print("  phi_rho(cinquefoil):", rho_cinquefoil)
print("  phi_rho(stevedore): ", rho_stevedore)
print("  distinguished:", rho_cinquefoil != rho_stevedore)
