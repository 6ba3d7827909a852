package ir

import "fmt"

// Verify checks structural well-formedness of a module: unique names,
// terminated blocks, operand arities, and basic type sanity. It returns the
// first problem found, or nil.
func Verify(m *Module) error {
	for _, g := range m.Globals {
		if g.GName == "" {
			return fmt.Errorf("global with empty name")
		}
		if g.Elem == nil {
			return fmt.Errorf("global @%s has no element type", g.GName)
		}
	}
	// One pair of name sets serves every function, cleared between them.
	v := verifier{blocks: map[string]bool{}, names: map[string]bool{}}
	for _, f := range m.Funcs {
		if err := v.verifyFunc(f); err != nil {
			return fmt.Errorf("func @%s: %w", f.FName, err)
		}
	}
	return nil
}

// verifier holds the block and value names seen in the function being
// verified.
type verifier struct {
	blocks, names map[string]bool
}

func (v *verifier) verifyFunc(f *Function) error {
	if f.Sig == nil {
		return fmt.Errorf("missing signature")
	}
	if len(f.Params) != len(f.Sig.Params) {
		return fmt.Errorf("have %d params, signature wants %d", len(f.Params), len(f.Sig.Params))
	}
	if f.IsDecl() {
		if f.Linkage != Declared {
			return fmt.Errorf("bodyless function must have declare linkage")
		}
		return nil
	}
	if f.Linkage == Declared {
		return fmt.Errorf("declared function has a body")
	}
	blocks, names := v.blocks, v.names
	clear(blocks)
	clear(names)
	for _, p := range f.Params {
		if names[p.PName] {
			return fmt.Errorf("duplicate name %%%s", p.PName)
		}
		names[p.PName] = true
	}
	for _, b := range f.Blocks {
		if blocks[b.BName] {
			return fmt.Errorf("duplicate block %s", b.BName)
		}
		blocks[b.BName] = true
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.BName)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return fmt.Errorf("block %s does not end in a terminator", b.BName)
				}
				return fmt.Errorf("block %s has terminator %s mid-block", b.BName, in.Op)
			}
			if in.Op.HasResult() {
				if in.IName == "" {
					return fmt.Errorf("block %s: %s lacks a result name", b.BName, in.Op)
				}
				if names[in.IName] {
					return fmt.Errorf("duplicate name %%%s", in.IName)
				}
				names[in.IName] = true
			}
			if err := verifyInstr(in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.BName, in, err)
			}
		}
	}
	// All operands must be defined somewhere in the function or be
	// module-level/constant values.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch v := a.(type) {
				case *Instr:
					if v.Parent == nil || v.Parent.Parent != f {
						return fmt.Errorf("%s uses instruction from another function", in)
					}
				case *Param:
					if v.Parent != f {
						return fmt.Errorf("%s uses foreign parameter %%%s", in, v.PName)
					}
				}
			}
			for _, t := range in.Blocks {
				if t == nil || t.Parent != f {
					return fmt.Errorf("%s targets a foreign or nil block", in)
				}
			}
		}
	}
	return nil
}

func wantArgs(in *Instr, n int) error {
	if len(in.Args) != n {
		return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
	}
	return nil
}

func wantPtr(v Value, what string) error {
	if _, ok := v.Type().(PointerType); !ok {
		return fmt.Errorf("%s must be ptr-typed, is %s", what, v.Type())
	}
	return nil
}

func verifyInstr(in *Instr) error {
	switch in.Op {
	case OpAlloca:
		if in.Ty == nil {
			return fmt.Errorf("alloca without element type")
		}
		return nil
	case OpLoad:
		if err := wantArgs(in, 1); err != nil {
			return err
		}
		return wantPtr(in.Args[0], "load address")
	case OpStore:
		if err := wantArgs(in, 2); err != nil {
			return err
		}
		return wantPtr(in.Args[1], "store address")
	case OpGEP:
		if len(in.Args) < 2 {
			return fmt.Errorf("gep needs a base and at least one index")
		}
		return wantPtr(in.Args[0], "gep base")
	case OpMemcpy:
		if err := wantArgs(in, 3); err != nil {
			return err
		}
		if err := wantPtr(in.Args[0], "memcpy dst"); err != nil {
			return err
		}
		return wantPtr(in.Args[1], "memcpy src")
	case OpBitcast, OpPtrToInt, OpIntToPtr:
		return wantArgs(in, 1)
	case OpPhi:
		if len(in.Args) == 0 || len(in.Args) != len(in.Blocks) {
			return fmt.Errorf("phi args/blocks mismatch: %d vs %d", len(in.Args), len(in.Blocks))
		}
		return nil
	case OpSelect:
		return wantArgs(in, 3)
	case OpCall:
		if len(in.Args) < 1 {
			return fmt.Errorf("call without callee")
		}
		return wantPtr(in.Args[0], "callee")
	case OpRet:
		if len(in.Args) > 1 {
			return fmt.Errorf("ret with %d operands", len(in.Args))
		}
		return nil
	case OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs one target")
		}
		return nil
	case OpCondBr:
		if err := wantArgs(in, 1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("condbr needs two targets")
		}
		return nil
	case OpUnreachable:
		return nil
	case OpBin:
		if !IsBinKind(in.Sub) {
			return fmt.Errorf("unknown binary op %q", in.Sub)
		}
		return wantArgs(in, 2)
	case OpICmp:
		if !IsICmpPred(in.Sub) {
			return fmt.Errorf("unknown icmp predicate %q", in.Sub)
		}
		return wantArgs(in, 2)
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
}
