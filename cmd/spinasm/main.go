// Command spinasm assembles, disassembles, and executes HPU ISA programs
// (internal/isa) with cycle-accurate accounting — a standalone view of the
// repository's gem5 stand-in.
//
// Usage:
//
//	spinasm -run prog.s            # assemble and execute, report cycles
//	spinasm -dis prog.s            # assemble then disassemble (round trip)
//	spinasm -mem 1024 -run prog.s  # scratchpad size in bytes
//
// The program's halt code and final register file are printed after
// execution.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isa"
)

func main() {
	run := flag.Bool("run", false, "execute the program")
	dis := flag.Bool("dis", false, "print the disassembly")
	memSize := flag.Int("mem", 4096, "scratchpad bytes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spinasm [-run|-dis] [-mem N] prog.s")
		os.Exit(2)
	}
	if *memSize < 0 {
		fmt.Fprintf(os.Stderr, "spinasm: -mem %d: scratchpad size must be >= 0\n", *memSize)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinasm:", err)
		os.Exit(1)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinasm:", err)
		os.Exit(1)
	}
	if *dis || !*run {
		for pc, in := range prog {
			w, _ := isa.Encode(in)
			fmt.Printf("%4d  %08x  %s\n", pc, w, isa.Disassemble(in))
		}
	}
	if *run {
		vm := &isa.VM{Mem: make([]byte, *memSize)}
		rc, err := vm.Run(prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spinasm:", err)
			os.Exit(1)
		}
		fmt.Printf("halt %d after %d instructions, %d cycles (%.1f ns at 2.5 GHz)\n",
			rc, vm.Executed, vm.Cycles, float64(vm.Cycles)*0.4)
		for i := 0; i < isa.NumRegs; i += 4 {
			fmt.Printf("  r%-2d=%-10d r%-2d=%-10d r%-2d=%-10d r%-2d=%d\n",
				i, vm.Regs[i], i+1, vm.Regs[i+1], i+2, vm.Regs[i+2], i+3, vm.Regs[i+3])
		}
	}
}
