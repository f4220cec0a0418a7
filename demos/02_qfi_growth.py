# Quantum Fisher information of the probe state as a function of contact time,
# and how the Kerr coefficient and drive amplitude raise the plateau.  The
# linear undriven probe plateaus at the thermal-state value 1/(n(n+1)); Kerr
# nonlinearity and driving push the plateau above it, meaning better
# temperature precision per measurement.  Each series comes from one
# propagation that carries the exact n_th-derivative.

from kerr_thermo import SystemParams, TimeGrid, Truncation, cr_bound, qfi_series, tangent_trajectories

trunc = Truncation(30)
grid = TimeGrid(t_end=30.0, n_samples=61)
n_th = 0.05

print(f"thermal-state reference: 1/(n(n+1)) = {1 / (n_th * (1 + n_th)):.4f} at n_th = {n_th}")
print()
print("plateau QFI vs Kerr coefficient (drive = 1, delta = -3.5):")
for chi in (0.0, 0.3, 0.6):
    series = qfi_series(tangent_trajectories(SystemParams(-3.5, chi, 1.0, n_th), grid, trunc))
    t95 = series.time_at_fraction(0.95)
    print(
        f"  chi = {chi:3.1f}: plateau = {series.plateau:8.4f}"
        f"   t(95% of plateau) = {t95:4.1f}"
        f"   single-shot variance bound = {cr_bound(series.plateau):.5f}"
    )

print()
print("plateau QFI vs drive amplitude (chi = 0.5, delta = -3.5):")
for drive in (0.5, 1.0, 1.5):
    series = qfi_series(tangent_trajectories(SystemParams(-3.5, 0.5, drive, n_th), grid, trunc))
    print(f"  drive = {drive:3.1f}: plateau = {series.plateau:8.4f}")

print()
print("stronger nonlinearity or drive -> larger plateau QFI, at the cost of a")
print("longer time to reach it")
