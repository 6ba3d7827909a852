package ir

import "fmt"

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
func (in *Instr) String() string { return string(in.appendTo(nil)) }

// appendTo appends the instruction in MIR textual syntax to b.
func (in *Instr) appendTo(b []byte) []byte {
	if in.Op.HasResult() {
		b = append(append(append(b, '%'), in.IName...), " = "...)
	}
	switch in.Op {
	case OpAlloca:
		b = appendType(append(b, "alloca "...), in.Ty)
	case OpLoad:
		b = appendOperands(appendType(append(b, "load "...), in.Ty), in.Args[0])
	case OpStore:
		b = appendOperands(appendIdent(append(b, "store "...), in.Args[0]), in.Args[1])
	case OpGEP:
		b = appendOperands(appendType(append(b, "gep "...), in.Ty), in.Args...)
	case OpMemcpy:
		b = appendOperands(appendIdent(append(b, "memcpy "...), in.Args[0]), in.Args[1], in.Args[2])
	case OpBitcast:
		b = appendOperands(appendType(append(b, "bitcast "...), in.T), in.Args[0])
	case OpPtrToInt:
		b = appendIdent(append(b, "ptrtoint "...), in.Args[0])
	case OpIntToPtr:
		b = appendIdent(append(b, "inttoptr "...), in.Args[0])
	case OpPhi:
		b = appendType(append(b, "phi "...), in.T)
		for i, a := range in.Args {
			b = appendIdent(append(b, ", ["...), a)
			b = append(append(append(b, ", "...), in.Blocks[i].BName...), ']')
		}
	case OpSelect:
		b = appendOperands(appendIdent(append(b, "select "...), in.Args[0]), in.Args[1], in.Args[2])
	case OpCall:
		b = appendType(append(b, "call "...), in.Type())
		b = append(appendIdent(append(b, ", "...), in.Args[0]), '(')
		for i, a := range in.Args[1:] {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendIdent(b, a)
		}
		b = append(b, ')')
	case OpRet:
		b = append(b, "ret"...)
		if len(in.Args) > 0 {
			b = appendIdent(append(b, ' '), in.Args[0])
		}
	case OpBr:
		b = append(append(b, "br "...), in.Blocks[0].BName...)
	case OpCondBr:
		b = appendIdent(append(b, "condbr "...), in.Args[0])
		b = append(append(b, ", "...), in.Blocks[0].BName...)
		b = append(append(b, ", "...), in.Blocks[1].BName...)
	case OpUnreachable:
		b = append(b, "unreachable"...)
	case OpBin:
		b = appendOperands(appendType(append(append(b, in.Sub...), ' '), in.T), in.Args[0], in.Args[1])
	case OpICmp:
		b = appendOperands(append(append(b, "icmp "...), in.Sub...), in.Args[0], in.Args[1])
	default:
		b = append(append(append(b, '<'), in.Op.String()...), '>')
	}
	return b
}

// appendOperands appends ", " and the spelling of each of vs.
func appendOperands(b []byte, vs ...Value) []byte {
	for _, v := range vs {
		b = appendIdent(append(b, ", "...), v)
	}
	return b
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
