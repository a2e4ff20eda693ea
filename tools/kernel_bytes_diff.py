#!/usr/bin/env python3
"""Check that the packed register-kernel entries compiled to the same bytes.

Usage:
  kernel_bytes_diff.py OLD_DIR NEW_DIR

OLD_DIR and NEW_DIR each hold the kernel objects of one build
(build/src/kernels/CMakeFiles/armgemm_kernels.dir): avx2_kernels.cpp.o,
generic_kernels.cpp.o and sgemm_kernels.cpp.o. Every packed entry found
in OLD_DIR (the AVX2 f64 and f32 kernels and the generic templates; not
the strided entries) is reduced, per side, to its instruction bytes plus
the symbols its relocations name, so a function that only moved within
its section compares equal; the alignment padding after its last
instruction is dropped. Prints one line per entry and exits 1 when any
entry differs or is missing. Needs binutils' objdump.
"""
import re
import subprocess
import sys

OBJECTS = ["avx2_kernels.cpp.o", "generic_kernels.cpp.o", "sgemm_kernels.cpp.o"]
PACKED = [r"avx2_microkernel_\w+\(", r"avx2_smicrokernel_\w+\(", r"generic_microkernel<",
          r"generic_smicrokernel<"]


def functions(obj):
    """{demangled name: [(kind, bytes or relocation type, mnemonic or symbol)]}"""
    out = subprocess.run(["objdump", "-d", "-r", "-C", obj], capture_output=True, text=True,
                         check=True).stdout
    funcs, name = {}, None
    for line in out.splitlines():
        head = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
        if head:
            name = head.group(1)
            funcs[name] = []
            continue
        if name is None or not line.strip():
            continue
        reloc = re.match(r"^\s+[0-9a-f]+: (R_\S+)\s+(.*)$", line)
        if reloc:
            funcs[name].append(("reloc", reloc.group(1), reloc.group(2)))
            continue
        parts = line.split("\t")
        if len(parts) >= 3 and re.match(r"^\s+[0-9a-f]+:$", parts[0]):
            words = parts[2].split()
            funcs[name].append(("insn", parts[1].strip(), words[0] if words else ""))
    for body in funcs.values():
        while body and body[-1][0] == "insn" and (body[-1][2].startswith("nop") or
                                                   body[-1][2] in ("xchg", "data16", "cs")):
            body.pop()
    return funcs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = argv[1], argv[2]
    total = same = 0
    for obj in OBJECTS:
        old, new = functions(f"{old_dir}/{obj}"), functions(f"{new_dir}/{obj}")
        for name in sorted(old):
            if "strided" in name or not any(re.search(p, name) for p in PACKED):
                continue
            total += 1
            size = sum(len(x[1].split()) for x in old[name] if x[0] == "insn")
            if name not in new:
                print(f"missing    {name}")
            elif old[name] == new[name]:
                same += 1
                print(f"identical  {size:5d} bytes  {name}")
            else:
                print(f"DIFFERENT  {name}")
    print(f"{same}/{total} packed kernel entries byte-identical")
    return 0 if total and same == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
