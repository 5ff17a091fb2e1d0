#!/bin/sh
# Guards the per-instruction path against polymorphic compare. An
# unannotated [=], [<] or [min] on ints compiles to a C call into the
# runtime's polymorphic compare (or to Stdlib.min/max, which make that
# call), and one such call on the interpreter's or the machine model's
# hot path costs more than the work around it. The optimizer
# (Stz_vm.Opt) is on the list too: it runs once per IR instruction per
# compile, and a fuzz case compiles four times (O0 to O3).
#
# Builds the tree, disassembles the objects of Stz_vm.{Interp,Opt} and
# of Stz_machine.{Cache,Tlb,Branch,Hierarchy} with their relocations, and
# lists every call to caml_{compare,equal,notequal,lessthan,lessequal,
# greaterthan,greaterequal} or camlStdlib.{min,max}_*.
#
# Usage: scripts/check_hotpath.sh
# Exits 1 and names each such symbol per object when there is any,
# 2 when an object is missing or objdump is not installed, 0 otherwise.
set -eu

command -v objdump >/dev/null 2>&1 || { echo "check_hotpath: objdump not found" >&2; exit 2; }
dune build

objs="
_build/default/lib/vm/.stz_vm.objs/native/stz_vm__Interp.o
_build/default/lib/vm/.stz_vm.objs/native/stz_vm__Opt.o
_build/default/lib/machine/.stz_machine.objs/native/stz_machine__Cache.o
_build/default/lib/machine/.stz_machine.objs/native/stz_machine__Tlb.o
_build/default/lib/machine/.stz_machine.objs/native/stz_machine__Branch.o
_build/default/lib/machine/.stz_machine.objs/native/stz_machine__Hierarchy.o
"
pattern='(caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max)_[0-9]+)([-+]0x[0-9a-f]+)?$'

total=0
for obj in $objs; do
  [ -f "$obj" ] || { echo "check_hotpath: $obj not built" >&2; exit 2; }
  hits=$(objdump -dr "$obj" | awk '/R_X86_64_|R_AARCH64_/ {print $NF}' | grep -E "$pattern" || true)
  n=$(printf '%s' "$hits" | grep -c . || true)
  echo "$(basename "$obj"): $n polymorphic-compare relocations"
  if [ "$n" -gt 0 ]; then
    printf '%s\n' "$hits" | sed 's/[-+]0x[0-9a-f]*$//' | sort | uniq -c | sed 's/^ */  /'
  fi
  total=$((total + n))
done
echo "total: $total"
[ "$total" -eq 0 ] || exit 1
