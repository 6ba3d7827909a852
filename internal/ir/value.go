package ir

import "fmt"

// Value is anything that can appear as an instruction operand: constants,
// globals, functions, parameters, and instruction results.
type Value interface {
	Type() Type
	// Ident returns the operand spelling of the value, e.g. "%r", "@f",
	// "42:i32", or "null".
	Ident() string
}

// Linkage describes the cross-module visibility of a global or function
// (paper Section III-A: exported and imported symbols are the roots of the
// externally accessible set).
type Linkage uint8

const (
	// Internal linkage corresponds to C `static`: the symbol is invisible
	// to external modules.
	Internal Linkage = iota
	// Exported linkage corresponds to a non-static C definition: external
	// modules may name, read, write, and call the symbol.
	Exported
	// Declared marks a symbol that is declared but defined in some other
	// module (C `extern` declarations and function prototypes).
	Declared
)

func (l Linkage) String() string {
	switch l {
	case Internal:
		return "internal"
	case Exported:
		return "export"
	case Declared:
		return "declare"
	default:
		return fmt.Sprintf("Linkage(%d)", uint8(l))
	}
}

// ConstInt is an integer constant.
type ConstInt struct {
	Val int64
	T   IntType
}

func (c *ConstInt) Type() Type    { return c.T }
func (c *ConstInt) Ident() string { return string(appendIdent(nil, c)) }

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	Val float64
	T   FloatType
}

func (c *ConstFloat) Type() Type    { return c.T }
func (c *ConstFloat) Ident() string { return string(appendIdent(nil, c)) }

// ConstNull is the null pointer constant.
type ConstNull struct{}

func (*ConstNull) Type() Type    { return Ptr }
func (*ConstNull) Ident() string { return "null" }

// ConstUndef is an undefined value of a given type.
type ConstUndef struct{ T Type }

func (c *ConstUndef) Type() Type    { return c.T }
func (c *ConstUndef) Ident() string { return string(appendIdent(nil, c)) }

// ConstZero is an all-zeros aggregate or scalar initializer.
type ConstZero struct{ T Type }

func (c *ConstZero) Type() Type    { return c.T }
func (c *ConstZero) Ident() string { return string(appendIdent(nil, c)) }

// ConstAggregate is a brace-initialized aggregate constant, used for
// global array/struct initializers such as function-pointer tables.
// Elements may be scalar constants or symbol addresses.
type ConstAggregate struct {
	T     Type
	Elems []Value
}

func (c *ConstAggregate) Type() Type    { return c.T }
func (c *ConstAggregate) Ident() string { return string(appendIdent(nil, c)) }

// Global is a module-level variable. As a Value it denotes the *address* of
// the variable and therefore has type ptr; Elem is the allocated type.
type Global struct {
	GName   string
	Elem    Type
	Init    Value // nil for zero-initialized or declared globals
	Linkage Linkage
}

func (g *Global) Type() Type    { return Ptr }
func (g *Global) Ident() string { return "@" + g.GName }
func (g *Global) Name() string  { return g.GName }

// Param is a function parameter.
type Param struct {
	PName  string
	T      Type
	Index  int
	Parent *Function
}

func (p *Param) Type() Type    { return p.T }
func (p *Param) Ident() string { return "%" + p.PName }
func (p *Param) Name() string  { return p.PName }

// Function is a function definition or declaration. As a Value it denotes
// the function's address and has type ptr.
type Function struct {
	FName   string
	Sig     *FuncType
	Params  []*Param
	Blocks  []*Block
	Linkage Linkage
}

func (f *Function) Type() Type    { return Ptr }
func (f *Function) Ident() string { return "@" + f.FName }
func (f *Function) Name() string  { return f.FName }

// IsDecl reports whether f is a declaration without a body.
func (f *Function) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block, or nil for declarations.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Block is a basic block: a label followed by a list of instructions, the
// last of which is a terminator.
type Block struct {
	BName  string
	Instrs []*Instr
	Parent *Function
}

func (b *Block) Name() string { return b.BName }

// Terminator returns the block's final instruction, or nil if the block is
// empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}
