// Package interp is a reference interpreter for MIR. It executes closed
// modules (no unresolved external functions except the built-in allocator
// summaries) with a precise memory model, and optionally records every
// pointer value each instruction produces.
//
// The interpreter exists to validate the rest of the system dynamically.
// Its one user today is the differential test in internal/opt, which
// checks that optimization passes preserve observable behaviour. The
// pointer recording is there for a dynamic soundness check of the
// points-to analysis (every pointer an instruction actually held at
// runtime must appear in its analyzed points-to set); no test in
// internal/core runs one yet.
package interp

import (
	"fmt"

	"github.com/pip-analysis/pip/internal/ir"
)

// Value is a runtime value: an integer, a float, or a pointer.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	// Ptr fields; Obj == nil encodes the null pointer.
	Obj *Object
	Off int64
}

// Kind discriminates runtime values.
type Kind uint8

const (
	KInt Kind = iota
	KFloat
	KPtr
)

func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprint(v.Int)
	case KFloat:
		return fmt.Sprint(v.Float)
	default:
		if v.Obj == nil {
			return "null"
		}
		return fmt.Sprintf("&%s+%d", v.Obj.Name, v.Off)
	}
}

// IntVal makes an integer value.
func IntVal(v int64) Value { return Value{Kind: KInt, Int: v} }

// PtrVal makes a pointer value.
func PtrVal(obj *Object, off int64) Value { return Value{Kind: KPtr, Obj: obj, Off: off} }

// Object is one runtime memory object.
type Object struct {
	Name string
	Size int64
	// Origin is the IR value that allocated the object (a *ir.Global,
	// the alloca or heap-call *ir.Instr), used to map runtime objects
	// back to abstract memory locations.
	Origin ir.Value
	// cells maps byte offsets to stored values (one cell per store site;
	// loads must hit a cell exactly, which holds for well-typed code).
	cells map[int64]Value
}

func (o *Object) load(off int64) Value {
	if v, ok := o.cells[off]; ok {
		return v
	}
	return IntVal(0) // zero-initialized memory
}

func (o *Object) store(off int64, v Value) { o.cells[off] = v }

// Machine executes one module.
type Machine struct {
	Mod     *ir.Module
	Globals map[*ir.Global]*Object
	// MaxSteps bounds execution (default 1e6).
	MaxSteps int
	steps    int
	heapSeq  int

	// Observe, when non-nil, is called for every pointer value an
	// instruction produces (including parameters at call entry).
	Observe func(at ir.Value, ptr Value)

	funcObjs map[*ir.Function]*Object
}

// New prepares a machine: global objects are allocated and initializers
// applied.
func New(m *ir.Module) (*Machine, error) {
	mc := &Machine{
		Mod:      m,
		Globals:  map[*ir.Global]*Object{},
		MaxSteps: 1_000_000,
		funcObjs: map[*ir.Function]*Object{},
	}
	for _, g := range m.Globals {
		if g.Linkage == ir.Declared {
			return nil, fmt.Errorf("cannot interpret module with external global @%s", g.GName)
		}
		mc.Globals[g] = &Object{
			Name:   "@" + g.GName,
			Size:   ir.SizeOf(g.Elem),
			Origin: g,
			cells:  map[int64]Value{},
		}
	}
	for _, g := range m.Globals {
		if g.Init == nil {
			continue
		}
		if err := mc.applyInit(mc.Globals[g], 0, g.Elem, g.Init); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

func (mc *Machine) applyInit(obj *Object, off int64, t ir.Type, init ir.Value) error {
	switch init := init.(type) {
	case *ir.ConstInt:
		obj.store(off, IntVal(init.Val))
	case *ir.ConstFloat:
		obj.store(off, Value{Kind: KFloat, Float: init.Val})
	case *ir.ConstNull:
		obj.store(off, PtrVal(nil, 0))
	case *ir.ConstZero, *ir.ConstUndef:
		// zero/undef: leave cells empty (loads default to zero)
	case *ir.Global:
		obj.store(off, PtrVal(mc.Globals[init], 0))
	case *ir.Function:
		obj.store(off, mc.funcPtr(init))
	case *ir.ConstAggregate:
		elemOff := off
		switch t := t.(type) {
		case *ir.ArrayType:
			for _, e := range init.Elems {
				if e != nil {
					if err := mc.applyInit(obj, elemOff, t.Elem, e); err != nil {
						return err
					}
				}
				elemOff += ir.SizeOf(t.Elem)
			}
		case *ir.StructType:
			for i, e := range init.Elems {
				if i >= len(t.Fields) {
					break
				}
				if e != nil {
					if err := mc.applyInit(obj, off+ir.FieldOffset(t, i), t.Fields[i], e); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("aggregate initializer for non-aggregate %v", t)
		}
	default:
		return fmt.Errorf("unsupported initializer %T", init)
	}
	return nil
}

// funcPtr returns the per-machine singleton object standing for the
// function's "memory" (its address).
func (mc *Machine) funcPtr(f *ir.Function) Value {
	obj, ok := mc.funcObjs[f]
	if !ok {
		obj = &Object{Name: "@" + f.FName, Origin: f, cells: map[int64]Value{}}
		mc.funcObjs[f] = obj
	}
	return PtrVal(obj, 0)
}

// Call executes the named function with the given arguments.
func (mc *Machine) Call(name string, args ...Value) (Value, error) {
	f := mc.Mod.Func(name)
	if f == nil {
		return Value{}, fmt.Errorf("no function @%s", name)
	}
	return mc.call(f, args)
}

type frame struct {
	f      *ir.Function
	vals   map[ir.Value]Value
	locals []*Object
}

func (mc *Machine) call(f *ir.Function, args []Value) (Value, error) {
	if f.IsDecl() {
		return mc.callExternal(f, args)
	}
	fr := &frame{f: f, vals: map[ir.Value]Value{}}
	for i, p := range f.Params {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		fr.vals[p] = v
		if v.Kind == KPtr && mc.Observe != nil {
			mc.Observe(p, v)
		}
	}
	block := f.Entry()
	var prev *ir.Block
	for {
		nextBlock, ret, done, err := mc.runBlock(fr, block, prev)
		if err != nil {
			return Value{}, err
		}
		if done {
			return ret, nil
		}
		prev, block = block, nextBlock
	}
}

// callExternal implements the built-in allocator/libc summaries so closed
// test programs can use malloc/free/memcpy.
func (mc *Machine) callExternal(f *ir.Function, args []Value) (Value, error) {
	switch f.FName {
	case "malloc", "calloc":
		size := int64(64)
		if len(args) > 0 && args[0].Kind == KInt {
			size = args[0].Int
		}
		mc.heapSeq++
		obj := &Object{
			Name:   fmt.Sprintf("heap#%d", mc.heapSeq),
			Size:   size,
			Origin: nil,
			cells:  map[int64]Value{},
		}
		return PtrVal(obj, 0), nil
	case "free":
		return Value{}, nil
	case "memcpy", "memmove":
		if len(args) >= 2 && args[0].Kind == KPtr && args[1].Kind == KPtr &&
			args[0].Obj != nil && args[1].Obj != nil {
			dst, src := args[0], args[1]
			for off, v := range src.Obj.cells {
				if off >= src.Off {
					dst.Obj.store(dst.Off+(off-src.Off), v)
				}
			}
			return args[0], nil
		}
		return Value{}, fmt.Errorf("bad memcpy arguments")
	default:
		return Value{}, fmt.Errorf("call to external function @%s", f.FName)
	}
}

// runBlock executes one basic block and returns the successor (or the
// return value when done).
func (mc *Machine) runBlock(fr *frame, b *ir.Block, prev *ir.Block) (*ir.Block, Value, bool, error) {
	for _, in := range b.Instrs {
		mc.steps++
		if mc.steps > mc.MaxSteps {
			return nil, Value{}, false, fmt.Errorf("step limit exceeded")
		}
		switch in.Op {
		case ir.OpPhi:
			found := false
			for i, incoming := range in.Blocks {
				if incoming == prev {
					fr.set(mc, in, mc.eval(fr, in.Args[i]))
					found = true
					break
				}
			}
			if !found {
				return nil, Value{}, false, fmt.Errorf("phi in %s has no edge from %v", b.BName, prevName(prev))
			}
		case ir.OpAlloca:
			obj := &Object{
				Name:   "%" + in.IName,
				Size:   ir.SizeOf(in.Ty),
				Origin: in,
				cells:  map[int64]Value{},
			}
			fr.locals = append(fr.locals, obj)
			fr.set(mc, in, PtrVal(obj, 0))
		case ir.OpLoad:
			p := mc.eval(fr, in.Args[0])
			if p.Kind != KPtr || p.Obj == nil {
				return nil, Value{}, false, fmt.Errorf("load through %s", p)
			}
			fr.set(mc, in, p.Obj.load(p.Off))
		case ir.OpStore:
			v := mc.eval(fr, in.Args[0])
			p := mc.eval(fr, in.Args[1])
			if p.Kind != KPtr || p.Obj == nil {
				return nil, Value{}, false, fmt.Errorf("store through %s", p)
			}
			p.Obj.store(p.Off, v)
		case ir.OpGEP:
			base := mc.eval(fr, in.Args[0])
			if base.Kind != KPtr {
				return nil, Value{}, false, fmt.Errorf("gep on %s", base)
			}
			off, err := mc.gepOffset(fr, in)
			if err != nil {
				return nil, Value{}, false, err
			}
			fr.set(mc, in, PtrVal(base.Obj, base.Off+off))
		case ir.OpBitcast:
			fr.set(mc, in, mc.eval(fr, in.Args[0]))
		case ir.OpPtrToInt:
			p := mc.eval(fr, in.Args[0])
			// PNVI-ae: the integer carries the provenance so a later
			// inttoptr can recreate the pointer.
			fr.set(mc, in, Value{Kind: KInt, Int: p.Off, Obj: p.Obj, Off: p.Off})
		case ir.OpIntToPtr:
			v := mc.eval(fr, in.Args[0])
			fr.set(mc, in, Value{Kind: KPtr, Obj: v.Obj, Off: v.Off})
		case ir.OpSelect:
			c := mc.eval(fr, in.Args[0])
			if c.Int != 0 {
				fr.set(mc, in, mc.eval(fr, in.Args[1]))
			} else {
				fr.set(mc, in, mc.eval(fr, in.Args[2]))
			}
		case ir.OpCall:
			callee := mc.eval(fr, in.Args[0])
			var target *ir.Function
			if cf, ok := in.Args[0].(*ir.Function); ok {
				target = cf
			} else if callee.Kind == KPtr && callee.Obj != nil {
				if cf, ok := callee.Obj.Origin.(*ir.Function); ok {
					target = cf
				}
			}
			if target == nil {
				return nil, Value{}, false, fmt.Errorf("indirect call to %s resolves to no function", callee)
			}
			args := make([]Value, len(in.CallArgs()))
			for i, a := range in.CallArgs() {
				args[i] = mc.eval(fr, a)
			}
			ret, err := mc.call(target, args)
			if err != nil {
				return nil, Value{}, false, err
			}
			fr.set(mc, in, ret)
		case ir.OpMemcpy:
			dst := mc.eval(fr, in.Args[0])
			src := mc.eval(fr, in.Args[1])
			if _, err := mc.callExternal(&ir.Function{FName: "memcpy"}, []Value{dst, src}); err != nil {
				return nil, Value{}, false, err
			}
		case ir.OpBin:
			x, y := mc.eval(fr, in.Args[0]), mc.eval(fr, in.Args[1])
			fr.set(mc, in, binOp(in.Sub, x, y))
		case ir.OpICmp:
			x, y := mc.eval(fr, in.Args[0]), mc.eval(fr, in.Args[1])
			fr.set(mc, in, icmpOp(in.Sub, x, y))
		case ir.OpRet:
			if len(in.Args) == 0 {
				return nil, Value{}, true, nil
			}
			return nil, mc.eval(fr, in.Args[0]), true, nil
		case ir.OpBr:
			return in.Blocks[0], Value{}, false, nil
		case ir.OpCondBr:
			c := mc.eval(fr, in.Args[0])
			if c.Int != 0 {
				return in.Blocks[0], Value{}, false, nil
			}
			return in.Blocks[1], Value{}, false, nil
		case ir.OpUnreachable:
			return nil, Value{}, false, fmt.Errorf("reached unreachable in %s", b.BName)
		default:
			return nil, Value{}, false, fmt.Errorf("cannot interpret %s", in.Op)
		}
	}
	return nil, Value{}, false, fmt.Errorf("block %s fell through", b.BName)
}

func prevName(b *ir.Block) string {
	if b == nil {
		return "<entry>"
	}
	return b.BName
}

// set records an instruction result and reports pointers to the observer.
func (fr *frame) set(mc *Machine, in *ir.Instr, v Value) {
	fr.vals[in] = v
	if v.Kind == KPtr && v.Obj != nil && mc.Observe != nil {
		mc.Observe(in, v)
	}
}

// eval resolves an operand to a runtime value.
func (mc *Machine) eval(fr *frame, v ir.Value) Value {
	switch v := v.(type) {
	case *ir.ConstInt:
		return IntVal(v.Val)
	case *ir.ConstFloat:
		return Value{Kind: KFloat, Float: v.Val}
	case *ir.ConstNull:
		return PtrVal(nil, 0)
	case *ir.ConstUndef, *ir.ConstZero:
		return IntVal(0)
	case *ir.Global:
		return PtrVal(mc.Globals[v], 0)
	case *ir.Function:
		return mc.funcPtr(v)
	default:
		return fr.vals[v]
	}
}

// gepOffset computes the dynamic byte offset of a gep.
func (mc *Machine) gepOffset(fr *frame, in *ir.Instr) (int64, error) {
	t := in.Ty
	var off int64
	for i, idxV := range in.Args[1:] {
		idx := mc.eval(fr, idxV)
		if idx.Kind != KInt {
			return 0, fmt.Errorf("non-integer gep index")
		}
		if i == 0 {
			off += idx.Int * ir.SizeOf(t)
			continue
		}
		switch cur := t.(type) {
		case *ir.StructType:
			fi := int(idx.Int)
			if fi < 0 || fi >= len(cur.Fields) {
				return 0, fmt.Errorf("gep field index %d out of range", fi)
			}
			off += ir.FieldOffset(cur, fi)
			t = cur.Fields[fi]
		case *ir.ArrayType:
			off += idx.Int * ir.SizeOf(cur.Elem)
			t = cur.Elem
		default:
			return 0, fmt.Errorf("gep into scalar type %v", cur)
		}
	}
	return off, nil
}

func binOp(kind string, x, y Value) Value {
	if x.Kind == KFloat || y.Kind == KFloat {
		a, b := x.Float, y.Float
		if x.Kind == KInt {
			a = float64(x.Int)
		}
		if y.Kind == KInt {
			b = float64(y.Int)
		}
		switch kind {
		case "add":
			return Value{Kind: KFloat, Float: a + b}
		case "sub":
			return Value{Kind: KFloat, Float: a - b}
		case "mul":
			return Value{Kind: KFloat, Float: a * b}
		case "div":
			if b == 0 {
				return Value{Kind: KFloat}
			}
			return Value{Kind: KFloat, Float: a / b}
		}
		return Value{Kind: KFloat}
	}
	a, b := x.Int, y.Int
	out := int64(0)
	switch kind {
	case "add":
		out = a + b
	case "sub":
		out = a - b
	case "mul":
		out = a * b
	case "div":
		if b != 0 {
			out = a / b
		}
	case "rem":
		if b != 0 {
			out = a % b
		}
	case "and":
		out = a & b
	case "or":
		out = a | b
	case "xor":
		out = a ^ b
	case "shl":
		out = a << (uint64(b) & 63)
	case "shr":
		out = a >> (uint64(b) & 63)
	}
	// Integer arithmetic on a provenance-carrying integer keeps the
	// provenance when the other operand is a plain integer (pointer
	// adjustment via integers).
	res := IntVal(out)
	if x.Obj != nil && y.Obj == nil {
		res.Obj = x.Obj
		res.Off = x.Off + (out - a) // offset moves with the arithmetic
	}
	return res
}

func icmpOp(pred string, x, y Value) Value {
	var a, b int64
	if x.Kind == KPtr || y.Kind == KPtr {
		// Pointer comparisons: equality by (object, offset); ordering by
		// offset within the same object.
		xo, yo := x.Obj, y.Obj
		switch pred {
		case "eq":
			return boolVal(xo == yo && x.Off == y.Off)
		case "ne":
			return boolVal(!(xo == yo && x.Off == y.Off))
		}
		a, b = x.Off, y.Off
	} else {
		a, b = x.Int, y.Int
	}
	switch pred {
	case "eq":
		return boolVal(a == b)
	case "ne":
		return boolVal(a != b)
	case "lt":
		return boolVal(a < b)
	case "le":
		return boolVal(a <= b)
	case "gt":
		return boolVal(a > b)
	case "ge":
		return boolVal(a >= b)
	}
	return IntVal(0)
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}
