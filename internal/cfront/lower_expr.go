package cfront

import (
	"fmt"

	"github.com/pip-analysis/pip/internal/ir"
)

// Expression lowering. rvalue produces a loaded value; lvalue produces the
// address of an object.

// rvalue lowers e to a value, applying C array/function decay.
func (lw *lowerer) rvalue(e Expr) (ir.Value, CType) {
	switch e := e.(type) {
	case *IntLit:
		return lw.b.Int(e.Val, ir.I32), cInt
	case *FloatLit:
		return lw.b.Float(e.Val, ir.F64), cDouble
	case *StrLit:
		return lw.stringGlobal(e.Val), &Ptr{Elem: cChar}
	case *NullLit:
		return ir.Null(), &Ptr{Elem: cVoid}
	case *SizeofExpr:
		return lw.b.Int(ir.SizeOf(lw.irTypeOf(e.T)), ir.I64), cLong
	case *Ident:
		sym := lw.lookup(e.Name)
		if sym == nil {
			lw.errf(e.Line, "unknown identifier %q", e.Name)
		}
		if sym.isFunc {
			return sym.val, &Ptr{Elem: sym.ctype}
		}
		return lw.loadFrom(sym.val, sym.ctype, e.Line)
	case *Unary:
		return lw.rvalueUnary(e)
	case *Binary:
		return lw.rvalueBinary(e)
	case *Assign:
		addr, lt := lw.lvalue(e.LHS)
		v, vt := lw.rvalue(e.RHS)
		lw.storeConvertedAt(addr, lt, v, vt, e.Line)
		return lw.convert(v, vt, lt, e.Line), lt
	case *Cond:
		return lw.rvalueCond(e)
	case *Call:
		return lw.rvalueCall(e)
	case *Index, *Member:
		addr, t := lw.lvalue(e)
		return lw.loadFrom(addr, t, e.exprLine())
	case *CastExpr:
		v, vt := lw.rvalue(e.X)
		return lw.convert(v, vt, e.T, e.Line), e.T
	default:
		panic(fmt.Sprintf("rvalue: %T", e))
	}
}

// loadFrom loads an object of type t from addr, applying decay: arrays
// yield their address, structs yield the address too (consumers copy).
func (lw *lowerer) loadFrom(addr ir.Value, t CType, line int) (ir.Value, CType) {
	switch t := t.(type) {
	case *Arr:
		return addr, &Ptr{Elem: t.Elem}
	case *StructRef:
		return addr, t
	case *FuncCT:
		return addr, &Ptr{Elem: t}
	default:
		return lw.b.Load(lw.irTypeOf(t), addr), t
	}
}

// lvalue lowers e to (address, object type).
func (lw *lowerer) lvalue(e Expr) (ir.Value, CType) {
	switch e := e.(type) {
	case *Ident:
		sym := lw.lookup(e.Name)
		if sym == nil {
			lw.errf(e.Line, "unknown identifier %q", e.Name)
		}
		if sym.isFunc {
			lw.errf(e.Line, "function %q is not an lvalue", e.Name)
		}
		return sym.val, sym.ctype
	case *Unary:
		if e.Op != "*" {
			lw.errf(e.Line, "expression is not an lvalue")
		}
		v, vt := lw.rvalue(e.X)
		pt, ok := vt.(*Ptr)
		if !ok {
			lw.errf(e.Line, "dereference of non-pointer type %s", vt)
		}
		return v, pt.Elem
	case *Index:
		base, bt := lw.rvalue(e.X)
		pt, ok := bt.(*Ptr)
		if !ok {
			lw.errf(e.Line, "indexing a non-pointer type %s", bt)
		}
		idx, it := lw.rvalue(e.I)
		if !isInteger(it) {
			lw.errf(e.Line, "array index must be an integer, got %s", it)
		}
		addr := lw.b.GEP(lw.irTypeOf(pt.Elem), base, idx)
		return addr, pt.Elem
	case *Member:
		var base ir.Value
		var st CType
		if e.Arrow {
			v, vt := lw.rvalue(e.X)
			pt, ok := vt.(*Ptr)
			if !ok {
				lw.errf(e.Line, "-> on non-pointer type %s", vt)
			}
			base, st = v, pt.Elem
		} else {
			base, st = lw.lvalue(e.X)
		}
		sr, ok := st.(*StructRef)
		if !ok || sr.Def == nil {
			lw.errf(e.Line, "member access on non-struct type %s", st)
		}
		for fi, f := range sr.Def.Fields {
			if f.Name == e.Name {
				if sr.Def.Union {
					// Union members share storage at offset 0; reusing
					// the base address keeps the alias clients sound
					// (all members overlap).
					return base, f.Type
				}
				addr := lw.b.GEP(lw.irStruct(sr.Def), base,
					lw.b.Int(0, ir.I64), lw.b.Int(int64(fi), ir.I64))
				return addr, f.Type
			}
		}
		lw.errf(e.Line, "struct %s has no field %q", sr.Name, e.Name)
	case *CastExpr:
		// (T*)x used as lvalue target: *(T*)x pattern handled via Unary;
		// a cast itself is not an lvalue.
		lw.errf(e.Line, "cast expression is not an lvalue")
	}
	lw.errf(e.exprLine(), "expression is not an lvalue")
	return nil, nil
}

func (lw *lowerer) rvalueUnary(e *Unary) (ir.Value, CType) {
	switch e.Op {
	case "&":
		addr, t := lw.lvalue(e.X)
		return addr, &Ptr{Elem: t}
	case "*":
		v, vt := lw.rvalue(e.X)
		pt, ok := vt.(*Ptr)
		if !ok {
			lw.errf(e.Line, "dereference of non-pointer type %s", vt)
		}
		return lw.loadFrom(v, pt.Elem, e.Line)
	case "-":
		v, vt := lw.rvalue(e.X)
		it, ok := lw.irTypeOf(vt).(ir.IntType)
		if !ok {
			if ft, isF := lw.irTypeOf(vt).(ir.FloatType); isF {
				return lw.b.Bin("sub", ft, lw.b.Float(0, ft), v), vt
			}
			lw.errf(e.Line, "negation of non-numeric type %s", vt)
		}
		return lw.b.Bin("sub", it, lw.b.Int(0, it), v), vt
	case "!":
		v, vt := lw.rvalue(e.X)
		b := lw.toBool(v, vt)
		return lw.b.ICmp("eq", b, lw.b.Int(0, ir.I8)), cInt
	case "~":
		v, vt := lw.rvalue(e.X)
		it, ok := lw.irTypeOf(vt).(ir.IntType)
		if !ok {
			lw.errf(e.Line, "~ on non-integer type %s", vt)
		}
		return lw.b.Bin("xor", it, v, lw.b.Int(-1, it)), vt
	default:
		panic("unknown unary op " + e.Op)
	}
}

func (lw *lowerer) rvalueBinary(e *Binary) (ir.Value, CType) {
	switch e.Op {
	case "&&", "||":
		return lw.shortCircuit(e)
	}
	x, xt := lw.rvalue(e.X)
	y, yt := lw.rvalue(e.Y)

	switch e.Op {
	case "==", "!=", "<", "<=", ">", ">=":
		pred := map[string]string{"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}[e.Op]
		return lw.b.ICmp(pred, x, y), cInt
	}

	xPtr, xIsPtr := xt.(*Ptr)
	yPtr, yIsPtr := yt.(*Ptr)
	switch {
	case xIsPtr && yIsPtr && e.Op == "-":
		// Pointer difference: expose both and subtract as integers.
		xi := lw.b.PtrToInt(x)
		yi := lw.b.PtrToInt(y)
		return lw.b.Bin("sub", ir.I64, xi, yi), cLong
	case xIsPtr && (e.Op == "+" || e.Op == "-"):
		if !isInteger(yt) {
			lw.errf(e.Line, "pointer arithmetic with non-integer %s", yt)
		}
		off := y
		if e.Op == "-" {
			off = lw.b.Bin("sub", ir.I64, lw.b.Int(0, ir.I64), y)
		}
		elem := lw.irTypeOf(xPtr.Elem)
		if ir.TypesEqual(elem, ir.Void) {
			elem = ir.I8
		}
		return lw.b.GEP(elem, x, off), xt
	case yIsPtr && e.Op == "+":
		if !isInteger(xt) {
			lw.errf(e.Line, "pointer arithmetic with non-integer %s", xt)
		}
		elem := lw.irTypeOf(yPtr.Elem)
		if ir.TypesEqual(elem, ir.Void) {
			elem = ir.I8
		}
		return lw.b.GEP(elem, y, x), yt
	}

	kind := binKinds[e.Op]
	if kind == "" {
		panic("unknown binary op " + e.Op)
	}
	rt := arithType(xt, yt)
	irt := lw.irTypeOf(rt)
	return lw.b.Bin(kind, irt, x, y), rt
}

// binKinds maps a C binary operator to its MIR bin kind.
var binKinds = map[string]string{
	"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
	"&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
}

// arithType implements loose usual-arithmetic-conversions.
func arithType(a, b CType) CType {
	if isFloating(a) || isFloating(b) {
		return cDouble
	}
	ap, aok := a.(*Prim)
	bp, bok := b.(*Prim)
	if aok && bok && (ap.Kind == CLong || bp.Kind == CLong) {
		return cLong
	}
	return cInt
}

// shortCircuit lowers && and || with proper control flow.
func (lw *lowerer) shortCircuit(e *Binary) (ir.Value, CType) {
	x, xt := lw.rvalue(e.X)
	xb := lw.toBool(x, xt)
	rhsB := lw.freshBlock("sc.rhs")
	endB := lw.freshBlock("sc.end")
	firstB := lw.b.B
	if e.Op == "&&" {
		lw.b.CondBr(xb, rhsB, endB)
	} else {
		lw.b.CondBr(xb, endB, rhsB)
	}
	lw.setBlock(rhsB)
	y, yt := lw.rvalue(e.Y)
	yb := lw.toBool(y, yt)
	rhsEnd := lw.b.B
	lw.b.Br(endB)
	lw.setBlock(endB)
	phi := lw.b.Phi(ir.I1, []ir.Value{xb, yb}, []*ir.Block{firstB, rhsEnd})
	return phi, cInt
}

func (lw *lowerer) rvalueCond(e *Cond) (ir.Value, CType) {
	c := lw.toBool(lw.rvalue(e.C))
	thenB := lw.freshBlock("cond.then")
	elseB := lw.freshBlock("cond.else")
	endB := lw.freshBlock("cond.end")
	lw.b.CondBr(c, thenB, elseB)
	lw.setBlock(thenB)
	tv, tt := lw.rvalue(e.T)
	thenEnd := lw.b.B
	lw.b.Br(endB)
	lw.setBlock(elseB)
	fv, ft := lw.rvalue(e.F)
	fv = lw.convert(fv, ft, tt, e.Line)
	elseEnd := lw.b.B
	lw.b.Br(endB)
	lw.setBlock(endB)
	phi := lw.b.Phi(lw.irTypeOf(decay(tt)), []ir.Value{tv, fv}, []*ir.Block{thenEnd, elseEnd})
	return phi, tt
}

func (lw *lowerer) rvalueCall(e *Call) (ir.Value, CType) {
	var callee ir.Value
	var ft *FuncCT
	if id, ok := e.Fun.(*Ident); ok {
		sym := lw.lookup(id.Name)
		if sym == nil {
			lw.errf(e.Line, "call to undeclared function %q", id.Name)
		}
		if sym.isFunc {
			callee = sym.val
			ft = sym.ctype.(*FuncCT)
		}
	}
	if callee == nil {
		v, vt := lw.rvalue(e.Fun)
		callee = v
		switch t := vt.(type) {
		case *Ptr:
			if f, ok := t.Elem.(*FuncCT); ok {
				ft = f
			}
		case *FuncCT:
			ft = t
		}
		if ft == nil {
			lw.errf(e.Line, "called value has non-function type %s", vt)
		}
	}
	// The builder copies the arguments, so a short list stays on the stack.
	var buf [8]ir.Value
	args := buf[:0]
	for i, a := range e.Args {
		v, vt := lw.rvalue(a)
		if i < len(ft.Params) {
			v = lw.convert(v, vt, decay(ft.Params[i]), e.Line)
		}
		args = append(args, v)
	}
	ret := lw.b.Call(lw.irTypeOf(ft.Ret), callee, args...)
	return ret, ft.Ret
}

// toBool converts a value to an i1 condition.
func (lw *lowerer) toBool(v ir.Value, t CType) ir.Value {
	if ir.TypesEqual(v.Type(), ir.I1) {
		return v
	}
	if isPointerLike(t) {
		return lw.b.ICmp("ne", v, ir.Null())
	}
	if it, ok := v.Type().(ir.IntType); ok {
		return lw.b.ICmp("ne", v, lw.b.Int(0, it))
	}
	if ft, ok := v.Type().(ir.FloatType); ok {
		return lw.b.ICmp("ne", v, lw.b.Float(0, ft))
	}
	return lw.b.ICmp("ne", v, lw.b.Int(0, ir.I64))
}

// convert coerces v from type "from" to type "to", inserting the cast
// instructions the analysis cares about (ptrtoint / inttoptr).
func (lw *lowerer) convert(v ir.Value, from, to CType, line int) ir.Value {
	from, to = decay(from), decay(to)
	if sameType(from, to) {
		return v
	}
	fromPtr := isPointerLike(from)
	toPtr := isPointerLike(to)
	switch {
	case fromPtr && toPtr:
		return v // ptr-to-ptr casts are free with opaque pointers
	case fromPtr && isInteger(to):
		return lw.b.PtrToInt(v)
	case isInteger(from) && toPtr:
		if ci, ok := v.(*ir.ConstInt); ok && ci.Val == 0 {
			return ir.Null()
		}
		return lw.b.IntToPtr(v)
	case isVoid(to):
		return v
	case !fromPtr && !toPtr:
		// Numeric conversions: reinterpretation is irrelevant to the
		// analysis; use a bitcast to keep SSA types coherent.
		if ir.TypesEqual(v.Type(), lw.irTypeOf(to)) {
			return v
		}
		if _, isConst := v.(*ir.ConstInt); isConst {
			return v
		}
		return lw.b.Bitcast(lw.irTypeOf(to), v)
	default:
		// Struct-to-struct or otherwise incompatible: pass through.
		return v
	}
}

// storeConverted stores v (of type vt) into slot declared as type lt.
func (lw *lowerer) storeConverted(v ir.Value, vt CType, slot ir.Value, lt CType, line int) {
	lw.storeConvertedAt(slot, lt, v, vt, line)
}

func (lw *lowerer) storeConvertedAt(addr ir.Value, lt CType, v ir.Value, vt CType, line int) {
	if sr, isStruct := lt.(*StructRef); isStruct {
		// Struct assignment: raw copy (v is the source address).
		size := ir.SizeOf(lw.irStruct(sr.Def))
		lw.b.Memcpy(addr, v, lw.b.Int(size, ir.I64))
		return
	}
	lw.b.Store(lw.convert(v, vt, lt, line), addr)
}
