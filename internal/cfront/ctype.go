package cfront

import (
	"fmt"
	"strings"

	"github.com/pip-analysis/pip/internal/ir"
)

// CType models mini-C types.
type CType interface {
	String() string
	isCType()
}

// PrimKind enumerates primitive type kinds.
type PrimKind uint8

const (
	CVoid PrimKind = iota
	CChar
	CShort
	CInt
	CLong
	CFloat
	CDouble
)

// Prim is a primitive type.
type Prim struct{ Kind PrimKind }

// Ptr is a pointer type.
type Ptr struct{ Elem CType }

// Arr is a fixed-length array type.
type Arr struct {
	Elem CType
	Len  int
}

// StructRef names a struct type; Def is resolved during parsing.
type StructRef struct {
	Name string
	Def  *StructDef
}

// StructDef is a struct or union definition. Unions share storage between
// their members: member access resolves to offset 0, which keeps the alias
// clients sound (all members overlap).
type StructDef struct {
	Name   string
	Fields []Field
	Union  bool
	irType *ir.StructType
}

// Field is one struct member.
type Field struct {
	Name string
	Type CType
}

// FuncCT is a function type (used through pointers and declarations).
type FuncCT struct {
	Ret      CType
	Params   []CType
	Variadic bool
}

func (*Prim) isCType()      {}
func (*Ptr) isCType()       {}
func (*Arr) isCType()       {}
func (*StructRef) isCType() {}
func (*FuncCT) isCType()    {}

func (p *Prim) String() string {
	switch p.Kind {
	case CVoid:
		return "void"
	case CChar:
		return "char"
	case CShort:
		return "short"
	case CInt:
		return "int"
	case CLong:
		return "long"
	case CFloat:
		return "float"
	case CDouble:
		return "double"
	}
	return "?"
}

func (p *Ptr) String() string { return p.Elem.String() + "*" }
func (a *Arr) String() string { return fmt.Sprintf("%s[%d]", a.Elem, a.Len) }
func (s *StructRef) String() string {
	return "struct " + s.Name
}
func (f *FuncCT) String() string {
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = p.String()
	}
	if f.Variadic {
		parts = append(parts, "...")
	}
	return fmt.Sprintf("%s(%s)", f.Ret, strings.Join(parts, ", "))
}

// Common singletons.
var (
	cVoid   = &Prim{CVoid}
	cChar   = &Prim{CChar}
	cInt    = &Prim{CInt}
	cLong   = &Prim{CLong}
	cDouble = &Prim{CDouble}
)

// isVoid reports whether t is void.
func isVoid(t CType) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind == CVoid
}

// isInteger reports whether t is an integer type.
func isInteger(t CType) bool {
	p, ok := t.(*Prim)
	return ok && p.Kind >= CChar && p.Kind <= CLong
}

// isFloating reports whether t is float or double.
func isFloating(t CType) bool {
	p, ok := t.(*Prim)
	return ok && (p.Kind == CFloat || p.Kind == CDouble)
}

// isPointerLike reports whether t is a pointer or decays to one.
func isPointerLike(t CType) bool {
	switch t.(type) {
	case *Ptr, *Arr, *FuncCT:
		return true
	}
	return false
}

// sameType is a loose structural comparison: it reports whether a and b
// spell the same, without building the spellings. Structs compare by tag
// name, so two definitions under one tag are the same type.
func sameType(a, b CType) bool {
	switch a := a.(type) {
	case *Prim:
		b, ok := b.(*Prim)
		return ok && a.String() == b.String()
	case *Ptr:
		b, ok := b.(*Ptr)
		return ok && sameType(a.Elem, b.Elem)
	case *Arr:
		b, ok := b.(*Arr)
		return ok && a.Len == b.Len && sameType(a.Elem, b.Elem)
	case *StructRef:
		b, ok := b.(*StructRef)
		return ok && a.Name == b.Name
	case *FuncCT:
		b, ok := b.(*FuncCT)
		if !ok || a.Variadic != b.Variadic || len(a.Params) != len(b.Params) || !sameType(a.Ret, b.Ret) {
			return false
		}
		for i := range a.Params {
			if !sameType(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	}
	return a.String() == b.String()
}

// irTypeOf lowers a C type to MIR. Struct types are registered in the
// module on first use.
func (lw *lowerer) irTypeOf(t CType) ir.Type {
	switch t := t.(type) {
	case *Prim:
		switch t.Kind {
		case CVoid:
			return ir.Void
		case CChar:
			return ir.I8
		case CShort:
			return ir.I16
		case CInt:
			return ir.I32
		case CLong:
			return ir.I64
		case CFloat:
			return ir.F32
		case CDouble:
			return ir.F64
		}
	case *Ptr:
		return ir.Ptr
	case *Arr:
		return &ir.ArrayType{Elem: lw.irTypeOf(t.Elem), Len: t.Len}
	case *StructRef:
		return lw.irStruct(t.Def)
	case *FuncCT:
		return ir.Ptr // function values decay to pointers
	}
	// No source position survives to type lowering, so these diagnostics
	// carry line 0 (rendered without a line prefix). They are believed
	// unreachable from parsed source — the parser never builds the shapes
	// they guard against — but a malformed AST handed to the lowerer
	// directly must produce a compile error, not a crash.
	lw.errf(0, "cannot lower C type %T (%v)", t, t)
	return ir.Void // unreachable: errf panics
}

func (lw *lowerer) irStruct(def *StructDef) *ir.StructType {
	if def == nil {
		lw.errf(0, "use of undefined struct type")
	}
	if def.irType != nil {
		return def.irType
	}
	// Register the shell first so self-referencing structs (through
	// pointers, which are opaque) terminate.
	st := &ir.StructType{Name: def.Name}
	def.irType = st
	for _, f := range def.Fields {
		st.Fields = append(st.Fields, lw.irTypeOf(f.Type))
	}
	if err := lw.mod.AddStruct(st); err != nil {
		// Name collision across scopes: uniquify.
		st.Name = fmt.Sprintf("%s.%d", def.Name, len(lw.mod.Structs))
		if err := lw.mod.AddStruct(st); err != nil {
			lw.errf(0, "cannot register struct %q: %v", def.Name, err)
		}
	}
	return st
}

// irFuncSig lowers a C function type to an MIR signature.
func (lw *lowerer) irFuncSig(ft *FuncCT) *ir.FuncType {
	sig := &ir.FuncType{Ret: lw.irTypeOf(ft.Ret), Variadic: ft.Variadic}
	for _, pt := range ft.Params {
		sig.Params = append(sig.Params, lw.irTypeOf(decay(pt)))
	}
	return sig
}

// decay converts array and function types to pointers (C parameter decay).
func decay(t CType) CType {
	switch t := t.(type) {
	case *Arr:
		return &Ptr{Elem: t.Elem}
	case *FuncCT:
		return &Ptr{Elem: t}
	}
	return t
}
