package ir

import (
	"fmt"
	"io"
	"strings"
)

// Op enumerates MIR instruction opcodes.
type Op uint8

const (
	OpInvalid Op = iota
	// Memory.
	OpAlloca // %x = alloca T            (one abstract stack object per site)
	OpLoad   // %x = load T, p
	OpStore  // store v, p
	OpGEP    // %x = gep T, p, idx...    (pointer arithmetic; field-insensitive for the analysis)
	OpMemcpy // memcpy dst, src, len     (raw byte copy; transfers pointees)
	// Casts and conversions.
	OpBitcast  // %x = bitcast T, v
	OpPtrToInt // %x = ptrtoint p        (exposes pointees: Ω ⊒ p)
	OpIntToPtr // %x = inttoptr v        (unknown origin: x ⊒ Ω)
	// Value merges.
	OpPhi    // %x = phi T, [v, bb]...
	OpSelect // %x = select c, a, b
	// Calls and returns.
	OpCall // [%x =] call T, callee(args...)
	OpRet  // ret [v]
	// Control flow.
	OpBr     // br bb
	OpCondBr // condbr c, bb1, bb2
	OpUnreachable
	// Scalar computation.
	OpBin  // %x = <add|sub|mul|div|rem|and|or|xor|shl|shr> T, a, b
	OpICmp // %x = icmp <pred>, a, b
)

var opNames = [...]string{
	OpInvalid:     "invalid",
	OpAlloca:      "alloca",
	OpLoad:        "load",
	OpStore:       "store",
	OpGEP:         "gep",
	OpMemcpy:      "memcpy",
	OpBitcast:     "bitcast",
	OpPtrToInt:    "ptrtoint",
	OpIntToPtr:    "inttoptr",
	OpPhi:         "phi",
	OpSelect:      "select",
	OpCall:        "call",
	OpRet:         "ret",
	OpBr:          "br",
	OpCondBr:      "condbr",
	OpUnreachable: "unreachable",
	OpBin:         "bin",
	OpICmp:        "icmp",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	switch op {
	case OpRet, OpBr, OpCondBr, OpUnreachable:
		return true
	}
	return false
}

// HasResult reports whether op produces an SSA value.
func (op Op) HasResult() bool {
	switch op {
	case OpStore, OpMemcpy, OpRet, OpBr, OpCondBr, OpUnreachable:
		return false
	}
	return true
}

// Instr is a single MIR instruction. A uniform struct keeps the parser,
// printer, and analyses simple; Op decides which fields are meaningful.
type Instr struct {
	Op    Op
	IName string // SSA result name ("" when no result)
	T     Type   // result type (Void when no result)
	Ty    Type   // auxiliary type: alloca/load/gep element type, bitcast target
	Args  []Value
	// Blocks holds control-flow block references: phi incoming blocks
	// (aligned with Args), or br/condbr targets.
	Blocks []*Block
	// Sub is the binary-op kind ("add", "sub", ...) or icmp predicate
	// ("eq", "ne", "lt", "le", "gt", "ge").
	Sub    string
	Parent *Block
}

func (in *Instr) Type() Type {
	if in.T == nil {
		return Void
	}
	return in.T
}

func (in *Instr) Ident() string { return "%" + in.IName }
func (in *Instr) Name() string  { return in.IName }

// Callee returns the called value for a call instruction.
func (in *Instr) Callee() Value { return in.Args[0] }

// CallArgs returns the argument operands of a call instruction.
func (in *Instr) CallArgs() []Value { return in.Args[1:] }

// String renders the instruction in MIR textual syntax.
func (in *Instr) String() string {
	var b strings.Builder
	in.print(&b)
	return b.String()
}

// print writes the instruction in MIR textual syntax to w.
func (in *Instr) print(w io.Writer) {
	if in.Op.HasResult() {
		fmt.Fprintf(w, "%%%s = ", in.IName)
	}
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(w, "alloca %s", in.Ty)
	case OpLoad:
		fmt.Fprintf(w, "load %s, %s", in.Ty, in.Args[0].Ident())
	case OpStore:
		fmt.Fprintf(w, "store %s, %s", in.Args[0].Ident(), in.Args[1].Ident())
	case OpGEP:
		fmt.Fprintf(w, "gep %s, %s", in.Ty, in.Args[0].Ident())
		for _, a := range in.Args[1:] {
			fmt.Fprintf(w, ", %s", a.Ident())
		}
	case OpMemcpy:
		fmt.Fprintf(w, "memcpy %s, %s, %s",
			in.Args[0].Ident(), in.Args[1].Ident(), in.Args[2].Ident())
	case OpBitcast:
		fmt.Fprintf(w, "bitcast %s, %s", in.T, in.Args[0].Ident())
	case OpPtrToInt:
		fmt.Fprintf(w, "ptrtoint %s", in.Args[0].Ident())
	case OpIntToPtr:
		fmt.Fprintf(w, "inttoptr %s", in.Args[0].Ident())
	case OpPhi:
		fmt.Fprintf(w, "phi %s", in.T)
		for i, a := range in.Args {
			fmt.Fprintf(w, ", [%s, %s]", a.Ident(), in.Blocks[i].BName)
		}
	case OpSelect:
		fmt.Fprintf(w, "select %s, %s, %s",
			in.Args[0].Ident(), in.Args[1].Ident(), in.Args[2].Ident())
	case OpCall:
		fmt.Fprintf(w, "call %s, %s(", in.Type(), in.Args[0].Ident())
		for i, a := range in.Args[1:] {
			if i > 0 {
				io.WriteString(w, ", ")
			}
			io.WriteString(w, a.Ident())
		}
		io.WriteString(w, ")")
	case OpRet:
		io.WriteString(w, "ret")
		if len(in.Args) > 0 {
			fmt.Fprintf(w, " %s", in.Args[0].Ident())
		}
	case OpBr:
		fmt.Fprintf(w, "br %s", in.Blocks[0].BName)
	case OpCondBr:
		fmt.Fprintf(w, "condbr %s, %s, %s",
			in.Args[0].Ident(), in.Blocks[0].BName, in.Blocks[1].BName)
	case OpUnreachable:
		io.WriteString(w, "unreachable")
	case OpBin:
		fmt.Fprintf(w, "%s %s, %s, %s", in.Sub, in.T, in.Args[0].Ident(), in.Args[1].Ident())
	case OpICmp:
		fmt.Fprintf(w, "icmp %s, %s, %s", in.Sub, in.Args[0].Ident(), in.Args[1].Ident())
	default:
		fmt.Fprintf(w, "<%s>", in.Op)
	}
}

// BinKinds lists the valid Sub values for OpBin.
var BinKinds = []string{"add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr"}

// ICmpPreds lists the valid Sub values for OpICmp.
var ICmpPreds = []string{"eq", "ne", "lt", "le", "gt", "ge"}

// IsBinKind reports whether s names a binary-op kind.
func IsBinKind(s string) bool {
	for _, k := range BinKinds {
		if s == k {
			return true
		}
	}
	return false
}

// IsICmpPred reports whether s names an icmp predicate.
func IsICmpPred(s string) bool {
	for _, p := range ICmpPreds {
		if s == p {
			return true
		}
	}
	return false
}
