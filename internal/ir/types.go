// Package ir implements MIR, a typed SSA intermediate representation that
// stands in for LLVM IR in this reproduction. MIR covers every instruction
// class that is observable by a flow-insensitive points-to analysis (paper
// Section II-A): stack and heap allocation, loads and stores, pointer
// arithmetic (getelementptr), value and pointer casts including
// ptrtoint/inttoptr, phi/select merges, direct and indirect calls, returns,
// and raw memory copies. Pointers are opaque (`ptr`), as in modern LLVM;
// loads, stores, and geps carry the accessed type explicitly.
package ir

// Type is the interface implemented by all MIR types.
type Type interface {
	String() string
	isType()
}

// VoidType is the type of instructions that produce no value.
type VoidType struct{}

// IntType is an integer type of the given bit width (i1, i8, i16, i32, i64).
type IntType struct{ Bits int }

// FloatType is a floating-point type of the given bit width (f32, f64).
type FloatType struct{ Bits int }

// PointerType is the opaque pointer type `ptr`. All pointers share it.
type PointerType struct{}

// ArrayType is a fixed-length array.
type ArrayType struct {
	Elem Type
	Len  int
}

// StructType is a (possibly named) aggregate. Named structs are registered
// in the enclosing Module and referenced by name in the textual format.
type StructType struct {
	Name   string // "" for anonymous literal structs
	Fields []Type
}

// FuncType is a function signature. It appears in function definitions and
// declarations only; function *values* have type ptr.
type FuncType struct {
	Ret      Type
	Params   []Type
	Variadic bool
}

func (VoidType) isType()    {}
func (IntType) isType()     {}
func (FloatType) isType()   {}
func (PointerType) isType() {}
func (*ArrayType) isType()  {}
func (*StructType) isType() {}
func (*FuncType) isType()   {}

func (VoidType) String() string      { return "void" }
func (t IntType) String() string     { return string(appendType(nil, t)) }
func (t FloatType) String() string   { return string(appendType(nil, t)) }
func (PointerType) String() string   { return "ptr" }
func (t *ArrayType) String() string  { return string(appendType(nil, t)) }
func (t *StructType) String() string { return string(appendType(nil, t)) }
func (t *FuncType) String() string   { return string(appendType(nil, t)) }

// Singleton instances for the common scalar types.
var (
	Void = VoidType{}
	I1   = IntType{1}
	I8   = IntType{8}
	I16  = IntType{16}
	I32  = IntType{32}
	I64  = IntType{64}
	F32  = FloatType{32}
	F64  = FloatType{64}
	Ptr  = PointerType{}
)

// PointerCompatible reports whether values of type t may hold or contain a
// pointer (paper Section II-A): pointers themselves, and aggregates with at
// least one pointer-compatible element. Integers are never pointer
// compatible under the PNVI-ae-udi provenance model (paper Section III-C).
func PointerCompatible(t Type) bool {
	switch t := t.(type) {
	case PointerType:
		return true
	case *ArrayType:
		return PointerCompatible(t.Elem)
	case *StructType:
		for _, f := range t.Fields {
			if PointerCompatible(f) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// TypesEqual reports structural equality of two types. Named structs compare
// by name; anonymous structs compare field-wise.
func TypesEqual(a, b Type) bool {
	switch a := a.(type) {
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case IntType:
		bi, ok := b.(IntType)
		return ok && a.Bits == bi.Bits
	case FloatType:
		bf, ok := b.(FloatType)
		return ok && a.Bits == bf.Bits
	case PointerType:
		_, ok := b.(PointerType)
		return ok
	case *ArrayType:
		ba, ok := b.(*ArrayType)
		return ok && a.Len == ba.Len && TypesEqual(a.Elem, ba.Elem)
	case *StructType:
		bs, ok := b.(*StructType)
		if !ok {
			return false
		}
		if a.Name != "" || bs.Name != "" {
			return a.Name == bs.Name
		}
		if len(a.Fields) != len(bs.Fields) {
			return false
		}
		for i := range a.Fields {
			if !TypesEqual(a.Fields[i], bs.Fields[i]) {
				return false
			}
		}
		return true
	case *FuncType:
		bf, ok := b.(*FuncType)
		if !ok || a.Variadic != bf.Variadic || len(a.Params) != len(bf.Params) {
			return false
		}
		if !TypesEqual(a.Ret, bf.Ret) {
			return false
		}
		for i := range a.Params {
			if !TypesEqual(a.Params[i], bf.Params[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// SizeOf returns the size of t in bytes under a simple 64-bit layout model
// (pointers are 8 bytes, no padding beyond natural field alignment is
// modeled). It is used by the BasicAA-style client for offset reasoning.
func SizeOf(t Type) int64 {
	switch t := t.(type) {
	case IntType:
		if t.Bits <= 8 {
			return 1
		}
		return int64(t.Bits / 8)
	case FloatType:
		return int64(t.Bits / 8)
	case PointerType:
		return 8
	case *ArrayType:
		return int64(t.Len) * SizeOf(t.Elem)
	case *StructType:
		var sz int64
		for _, f := range t.Fields {
			sz += SizeOf(f)
		}
		return sz
	default:
		return 0
	}
}

// FieldOffset returns the byte offset of field i in struct t under the same
// layout model as SizeOf.
func FieldOffset(t *StructType, i int) int64 {
	var off int64
	for j := 0; j < i && j < len(t.Fields); j++ {
		off += SizeOf(t.Fields[j])
	}
	return off
}
