"""
Parsing generated CIF text and scoring it
=========================================

Walks one good candidate and several broken ones through the parser and
the multi-term reward, then aggregates corpus failure rates.
"""

from catloop import parse_cif, pvcp, corpus_failure_rates

GOOD = """\
data_cu2o
_cell_length_a 4.27
_cell_length_b 4.27
_cell_length_c 4.27
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
_symmetry_space_group_name_H-M 'P n -3 m'
_symmetry_Int_Tables_number 224
loop_
_atom_site_label
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Cu1 Cu 0.25 0.25 0.25
Cu2 Cu 0.75 0.75 0.25
Cu3 Cu 0.75 0.25 0.75
Cu4 Cu 0.25 0.75 0.75
O1 O 0.0 0.0 0.0
O2 O 0.5 0.5 0.5
"""

out = parse_cif(GOOD)
print("parsed ok:", out.ok)
# a structure keeps its sites as columns: labels, elements, and one
# read-only (N, 3) array of fractional coordinates
s = out.structure
print("sites:", list(zip(s.labels, s.elements, s.frac.tolist()))[:3], "...")

# every candidate is graded against a target composition
br = pvcp(GOOD, {"Cu": 4, "O": 2})
print("\nreward breakdown for the good candidate:")
for name in ("s_parse", "s_valid", "s_comp", "s_phys", "total"):
    print(f"  {name:8s} {getattr(br, name):.4f}")

# now break it in different ways -------------------------------------------

# 1. drop the space group: still parses, loses validity credit
no_sg = "\n".join(
    ln for ln in GOOD.splitlines() if not ln.startswith("_symmetry")
)
# 2. wrong stoichiometry: swap an O for N
bad_comp = GOOD.replace("O2 O 0.5", "N1 N 0.5")
# 3. overlapping atoms: move Cu2 onto Cu1
overlap = GOOD.replace("Cu2 Cu 0.75 0.75 0.25", "Cu2 Cu 0.25 0.25 0.25")
# 4. mangled syntax: truncate mid-loop
truncated = GOOD[:200]

target = {"Cu": 4, "O": 2}
candidates = {
    "good": GOOD,
    "no space group": no_sg,
    "wrong composition": bad_comp,
    "overlapping pair": overlap,
    "truncated": truncated,
}

print("\nper-candidate totals and failure flags:")
breakdowns = []
for name, text in candidates.items():
    b = pvcp(text, target)
    breakdowns.append(b)
    flags = ",".join(b.flag_codes()) or "-"
    print(f"  {name:18s} total={b.total:.4f}  flags={flags}")

rates = corpus_failure_rates(breakdowns)
print("\ncorpus failure rates (%):", rates)

# defects carry line numbers for debugging generator output
bad = parse_cif(GOOD.replace("_cell_length_b 4.27", "_cell_length_b oops"))
print("\ndefects from a bad numeric cell value:")
for d in bad.defects:
    print(f"  line {d.line}: [{d.code}] {d.message} (fatal={d.fatal})")
