package isa

import "testing"

// FuzzAssembleRun feeds arbitrary source to the assembler. Whatever it
// accepts must encode and decode back to the same instructions and run on
// a VM without panicking; a runaway program ends at MaxSteps with an error.
// testdata/fuzz/FuzzAssembleRun holds the line of commas that once
// indexed past an empty field list.
func FuzzAssembleRun(f *testing.F) {
	for _, src := range []string{
		"li r1, 100\nli r2, 23\nadd r3, r1, r2\nmul r4, r1, r2\nhalt 0",
		"li r1, 0\nli r2, 10\nloop: addi r1, r1, 1\nbltu r1, r2, loop\nhalt 0",
		"li r1, 0\nlui r1, 4\nlb r3, 2(r1)\nsw r3, 8(r0)\nlw r4, 8(r0)\nhalt 0",
		"li r1, 0\nlui r1, 4\nsb r2, 0(r1)\nhalt 0",
		"lw r1, 100(r0)\nhalt 0",
		"loop: jmp loop",
		ddtOffsetAsm,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		for pc, in := range prog {
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("pc %d: assembled %+v does not encode: %v", pc, in, err)
			}
			if back, err := Decode(w); err != nil || back != in {
				t.Fatalf("pc %d: %+v encodes to %#08x, which decodes to %+v (%v)", pc, in, w, back, err)
			}
		}
		vm := &VM{Mem: make([]byte, 64), Packet: make([]byte, 64)}
		vm.Run(prog)
	})
}
