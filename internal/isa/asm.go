package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates assembler text into a program. Syntax:
//
//	; comment           # comment
//	label:
//	  li   r1, 100
//	  addi r1, r1, -1
//	  lw   r2, 8(r3)
//	  sw   r2, 0(r4)
//	  bne  r1, r0, label
//	  halt 0
//
// Branch targets are labels; immediates are decimal or 0x-hex.
func Assemble(src string) ([]Inst, error) {
	type pending struct {
		inst  Inst
		label string
		line  int
	}
	labels := map[string]int{}
	var prog []pending

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for strings.Contains(line, ":") {
			i := strings.Index(line, ":")
			label := strings.TrimSpace(line[:i])
			if label == "" || strings.ContainsAny(label, " \t") {
				return nil, fmt.Errorf("isa: line %d: bad label %q", ln+1, label)
			}
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q", ln+1, label)
			}
			labels[label] = len(prog)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		p, err := parseInst(line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %v", ln+1, err)
		}
		p.line = ln + 1
		prog = append(prog, p)
	}

	out := make([]Inst, len(prog))
	for i, p := range prog {
		in := p.inst
		if p.label != "" {
			target, ok := labels[p.label]
			if !ok {
				return nil, fmt.Errorf("isa: line %d: unknown label %q", p.line, p.label)
			}
			in.Imm = int32(target - i) // pc-relative, in instructions
		}
		if _, err := Encode(in); err != nil {
			return nil, fmt.Errorf("isa: line %d: %v", p.line, err)
		}
		out[i] = in
	}
	return out, nil
}

func parseInst(line string) (p struct {
	inst  Inst
	label string
	line  int
}, err error) {
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(fields) == 0 {
		return p, fmt.Errorf("missing mnemonic")
	}
	mn := strings.ToLower(fields[0])
	args := fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s: want %d operands, got %d", mn, n, len(args))
		}
		return nil
	}
	switch mn {
	case "nop":
		p.inst = Inst{Op: OpNop}
		return p, need(0)
	case "li", "lui":
		if err := need(2); err != nil {
			return p, err
		}
		op := OpLi
		if mn == "lui" {
			op = OpLui
		}
		rd, err := reg(args[0])
		if err != nil {
			return p, err
		}
		imm, err := immediate(args[1])
		if err != nil {
			return p, err
		}
		p.inst = Inst{Op: op, Rd: rd, Imm: imm}
		return p, nil
	case "add", "sub", "and", "or", "xor", "sll", "srl", "mul", "divu", "remu":
		if err := need(3); err != nil {
			return p, err
		}
		ops := map[string]Opcode{"add": OpAdd, "sub": OpSub, "and": OpAnd, "or": OpOr,
			"xor": OpXor, "sll": OpSll, "srl": OpSrl, "mul": OpMul, "divu": OpDivu, "remu": OpRemu}
		rd, err := reg(args[0])
		if err != nil {
			return p, err
		}
		rs1, err := reg(args[1])
		if err != nil {
			return p, err
		}
		rs2, err := reg(args[2])
		if err != nil {
			return p, err
		}
		p.inst = Inst{Op: ops[mn], Rd: rd, Rs1: rs1, Rs2: rs2}
		return p, nil
	case "addi":
		if err := need(3); err != nil {
			return p, err
		}
		rd, err := reg(args[0])
		if err != nil {
			return p, err
		}
		rs1, err := reg(args[1])
		if err != nil {
			return p, err
		}
		imm, err := immediate(args[2])
		if err != nil {
			return p, err
		}
		p.inst = Inst{Op: OpAddi, Rd: rd, Rs1: rs1, Imm: imm}
		return p, nil
	case "lw", "lb", "sw", "sb":
		if err := need(2); err != nil {
			return p, err
		}
		r1, err := reg(args[0])
		if err != nil {
			return p, err
		}
		imm, base, err := memOperand(args[1])
		if err != nil {
			return p, err
		}
		switch mn {
		case "lw":
			p.inst = Inst{Op: OpLw, Rd: r1, Rs1: base, Imm: imm}
		case "lb":
			p.inst = Inst{Op: OpLb, Rd: r1, Rs1: base, Imm: imm}
		case "sw":
			p.inst = Inst{Op: OpSw, Rs2: r1, Rs1: base, Imm: imm}
		case "sb":
			p.inst = Inst{Op: OpSb, Rs2: r1, Rs1: base, Imm: imm}
		}
		return p, nil
	case "beq", "bne", "bltu", "bgeu":
		if err := need(3); err != nil {
			return p, err
		}
		ops := map[string]Opcode{"beq": OpBeq, "bne": OpBne, "bltu": OpBltu, "bgeu": OpBgeu}
		rs1, err := reg(args[0])
		if err != nil {
			return p, err
		}
		rs2, err := reg(args[1])
		if err != nil {
			return p, err
		}
		p.inst = Inst{Op: ops[mn], Rs1: rs1, Rs2: rs2}
		p.label = args[2]
		return p, nil
	case "jmp":
		if err := need(1); err != nil {
			return p, err
		}
		p.inst = Inst{Op: OpJmp}
		p.label = args[0]
		return p, nil
	case "halt":
		if err := need(1); err != nil {
			return p, err
		}
		imm, err := immediate(args[0])
		if err != nil {
			return p, err
		}
		p.inst = Inst{Op: OpHalt, Imm: imm}
		return p, nil
	}
	return p, fmt.Errorf("unknown mnemonic %q", mn)
}

func reg(s string) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func immediate(s string) (int32, error) {
	n, err := strconv.ParseInt(strings.TrimSpace(s), 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if n > immMax || n < immMin {
		return 0, fmt.Errorf("immediate %d out of 14-bit range", n)
	}
	return int32(n), nil
}

// memOperand parses "imm(rN)".
func memOperand(s string) (int32, uint8, error) {
	open := strings.Index(s, "(")
	close := strings.Index(s, ")")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	immStr := s[:open]
	if immStr == "" {
		immStr = "0"
	}
	imm, err := immediate(immStr)
	if err != nil {
		return 0, 0, err
	}
	base, err := reg(s[open+1 : close])
	if err != nil {
		return 0, 0, err
	}
	return imm, base, nil
}
