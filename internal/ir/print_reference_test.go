package ir

import (
	"fmt"
	"io"
	"strings"
)

// printReference is the fmt-based printer Print used before it became
// an append-based renderer. It is kept as the reference the production
// printer is checked against byte for byte: the printed text is the
// module's content hash, and so the persistent store's key. Types and
// operands are rendered by refType and refIdent, copies of the old
// String and Ident methods, so the reference shares no code with the
// printer it checks.
func printReference(m *Module) string {
	var w strings.Builder
	fmt.Fprintf(&w, "module %q\n", m.Name)
	for _, s := range m.Structs {
		fields := make([]string, len(s.Fields))
		for i, f := range s.Fields {
			fields[i] = refType(f)
		}
		fmt.Fprintf(&w, "struct %%%s = { %s }\n", s.Name, strings.Join(fields, ", "))
	}
	for _, g := range m.Globals {
		if g.Linkage == Declared {
			fmt.Fprintf(&w, "declare global @%s : %s\n", g.GName, refType(g.Elem))
			continue
		}
		fmt.Fprintf(&w, "global @%s : %s", g.GName, refType(g.Elem))
		if g.Init != nil {
			fmt.Fprintf(&w, " = %s", refIdent(g.Init))
		}
		fmt.Fprintf(&w, " %s\n", g.Linkage)
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			fmt.Fprintf(&w, "declare func @%s%s\n", f.FName, refSig(f.Sig, nil))
			continue
		}
		fmt.Fprintf(&w, "\nfunc @%s%s %s {\n", f.FName, refSig(f.Sig, f.Params), f.Linkage)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&w, "%s:\n", blk.BName)
			for _, in := range blk.Instrs {
				io.WriteString(&w, "  ")
				refInstr(&w, in)
				io.WriteString(&w, "\n")
			}
		}
		io.WriteString(&w, "}\n")
	}
	return w.String()
}

func refSig(sig *FuncType, params []*Param) string {
	var parts []string
	for i, pt := range sig.Params {
		if params != nil {
			parts = append(parts, fmt.Sprintf("%%%s: %s", params[i].PName, refType(pt)))
		} else {
			parts = append(parts, refType(pt))
		}
	}
	if sig.Variadic {
		parts = append(parts, "...")
	}
	s := "(" + strings.Join(parts, ", ") + ")"
	if _, isVoid := sig.Ret.(VoidType); !isVoid {
		s += " -> " + refType(sig.Ret)
	}
	return s
}

func refInstr(w io.Writer, in *Instr) {
	if in.Op.HasResult() {
		fmt.Fprintf(w, "%%%s = ", in.IName)
	}
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(w, "alloca %s", refType(in.Ty))
	case OpLoad:
		fmt.Fprintf(w, "load %s, %s", refType(in.Ty), refIdent(in.Args[0]))
	case OpStore:
		fmt.Fprintf(w, "store %s, %s", refIdent(in.Args[0]), refIdent(in.Args[1]))
	case OpGEP:
		fmt.Fprintf(w, "gep %s, %s", refType(in.Ty), refIdent(in.Args[0]))
		for _, a := range in.Args[1:] {
			fmt.Fprintf(w, ", %s", refIdent(a))
		}
	case OpMemcpy:
		fmt.Fprintf(w, "memcpy %s, %s, %s",
			refIdent(in.Args[0]), refIdent(in.Args[1]), refIdent(in.Args[2]))
	case OpBitcast:
		fmt.Fprintf(w, "bitcast %s, %s", refType(in.T), refIdent(in.Args[0]))
	case OpPtrToInt:
		fmt.Fprintf(w, "ptrtoint %s", refIdent(in.Args[0]))
	case OpIntToPtr:
		fmt.Fprintf(w, "inttoptr %s", refIdent(in.Args[0]))
	case OpPhi:
		fmt.Fprintf(w, "phi %s", refType(in.T))
		for i, a := range in.Args {
			fmt.Fprintf(w, ", [%s, %s]", refIdent(a), in.Blocks[i].BName)
		}
	case OpSelect:
		fmt.Fprintf(w, "select %s, %s, %s",
			refIdent(in.Args[0]), refIdent(in.Args[1]), refIdent(in.Args[2]))
	case OpCall:
		fmt.Fprintf(w, "call %s, %s(", refType(in.Type()), refIdent(in.Args[0]))
		for i, a := range in.Args[1:] {
			if i > 0 {
				io.WriteString(w, ", ")
			}
			io.WriteString(w, refIdent(a))
		}
		io.WriteString(w, ")")
	case OpRet:
		io.WriteString(w, "ret")
		if len(in.Args) > 0 {
			fmt.Fprintf(w, " %s", refIdent(in.Args[0]))
		}
	case OpBr:
		fmt.Fprintf(w, "br %s", in.Blocks[0].BName)
	case OpCondBr:
		fmt.Fprintf(w, "condbr %s, %s, %s",
			refIdent(in.Args[0]), in.Blocks[0].BName, in.Blocks[1].BName)
	case OpUnreachable:
		io.WriteString(w, "unreachable")
	case OpBin:
		fmt.Fprintf(w, "%s %s, %s, %s", in.Sub, refType(in.T), refIdent(in.Args[0]), refIdent(in.Args[1]))
	case OpICmp:
		fmt.Fprintf(w, "icmp %s, %s, %s", in.Sub, refIdent(in.Args[0]), refIdent(in.Args[1]))
	default:
		fmt.Fprintf(w, "<%s>", in.Op)
	}
}

// refType is the old Type.String.
func refType(t Type) string {
	switch t := t.(type) {
	case IntType:
		return fmt.Sprintf("i%d", t.Bits)
	case FloatType:
		return fmt.Sprintf("f%d", t.Bits)
	case *ArrayType:
		return fmt.Sprintf("[%d x %s]", t.Len, refType(t.Elem))
	case *StructType:
		if t.Name != "" {
			return "%" + t.Name
		}
		fields := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = refType(f)
		}
		return "{ " + strings.Join(fields, ", ") + " }"
	case *FuncType:
		params := make([]string, len(t.Params))
		for i, p := range t.Params {
			params[i] = refType(p)
		}
		if t.Variadic {
			params = append(params, "...")
		}
		return fmt.Sprintf("func(%s) -> %s", strings.Join(params, ", "), refType(t.Ret))
	}
	return t.String() // void and ptr are constant strings
}

// refIdent is the old Value.Ident.
func refIdent(v Value) string {
	switch c := v.(type) {
	case *ConstInt:
		return fmt.Sprintf("%d:%s", c.Val, refType(c.T))
	case *ConstFloat:
		return fmt.Sprintf("%g:%s", c.Val, refType(c.T))
	case *ConstUndef:
		return "undef:" + refType(c.T)
	case *ConstZero:
		return "zero:" + refType(c.T)
	case *ConstAggregate:
		parts := make([]string, len(c.Elems))
		for i, e := range c.Elems {
			parts[i] = refIdent(e)
		}
		return "{ " + strings.Join(parts, ", ") + " }"
	}
	return v.Ident() // symbols, parameters, results and null concatenate
}
