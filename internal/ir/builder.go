package ir

import "strconv"

// Builder constructs MIR functions programmatically. It is used by the
// mini-C frontend's lowering pass and by the synthetic workload generator.
type Builder struct {
	M    *Module
	F    *Function
	B    *Block
	next int // counter for auto-generated value names
}

// NewBuilder returns a builder adding to module m.
func NewBuilder(m *Module) *Builder { return &Builder{M: m} }

// fresh returns a fresh SSA name.
func (b *Builder) fresh() string {
	b.next++
	return "t" + strconv.Itoa(b.next)
}

// NewFunc starts a new function and its entry block, making both current.
func (b *Builder) NewFunc(name string, sig *FuncType, paramNames []string, linkage Linkage) *Function {
	f := &Function{FName: name, Sig: sig, Linkage: linkage}
	for i, pt := range sig.Params {
		pn := "p" + strconv.Itoa(i)
		if i < len(paramNames) && paramNames[i] != "" {
			pn = paramNames[i]
		}
		f.Params = append(f.Params, &Param{PName: pn, T: pt, Index: i, Parent: f})
	}
	if err := b.M.AddFunc(f); err != nil {
		panic(err)
	}
	b.F = f
	b.B = b.NewBlock("entry")
	return f
}

// DeclareFunc adds an external function declaration (no body).
func (b *Builder) DeclareFunc(name string, sig *FuncType) *Function {
	f := &Function{FName: name, Sig: sig, Linkage: Declared}
	for i, pt := range sig.Params {
		f.Params = append(f.Params, &Param{PName: "p" + strconv.Itoa(i), T: pt, Index: i, Parent: f})
	}
	if err := b.M.AddFunc(f); err != nil {
		panic(err)
	}
	return f
}

// NewBlock appends a block to the current function and returns it. It does
// not change the insertion point; use SetBlock for that.
func (b *Builder) NewBlock(name string) *Block {
	blk := &Block{BName: name, Parent: b.F}
	b.F.Blocks = append(b.F.Blocks, blk)
	return blk
}

// SetBlock moves the insertion point to blk.
func (b *Builder) SetBlock(blk *Block) { b.B = blk }

// emit appends in to the current block and returns it.
func (b *Builder) emit(in *Instr) *Instr {
	in.Parent = b.B
	b.B.Instrs = append(b.B.Instrs, in)
	return in
}

// value emits a result-producing instruction with an auto-generated name.
func (b *Builder) value(in *Instr) *Instr {
	in.IName = b.fresh()
	return b.emit(in)
}

// Alloca emits a stack allocation of type t.
func (b *Builder) Alloca(t Type) *Instr {
	return b.value(&Instr{Op: OpAlloca, T: Ptr, Ty: t})
}

// Load emits a typed load through p.
func (b *Builder) Load(t Type, p Value) *Instr {
	return b.value(&Instr{Op: OpLoad, T: t, Ty: t, Args: []Value{p}})
}

// Store emits a store of v through p.
func (b *Builder) Store(v, p Value) *Instr {
	return b.emit(&Instr{Op: OpStore, T: Void, Args: []Value{v, p}})
}

// GEP emits pointer arithmetic over base type t.
func (b *Builder) GEP(t Type, p Value, indices ...Value) *Instr {
	return b.value(&Instr{Op: OpGEP, T: Ptr, Ty: t, Args: append([]Value{p}, indices...)})
}

// Memcpy emits a raw memory copy.
func (b *Builder) Memcpy(dst, src, n Value) *Instr {
	return b.emit(&Instr{Op: OpMemcpy, T: Void, Args: []Value{dst, src, n}})
}

// Bitcast emits a value reinterpretation to type t.
func (b *Builder) Bitcast(t Type, v Value) *Instr {
	return b.value(&Instr{Op: OpBitcast, T: t, Ty: t, Args: []Value{v}})
}

// PtrToInt emits a pointer-to-integer conversion (address exposure).
func (b *Builder) PtrToInt(p Value) *Instr {
	return b.value(&Instr{Op: OpPtrToInt, T: I64, Args: []Value{p}})
}

// IntToPtr emits an integer-to-pointer conversion (unknown-origin pointer).
func (b *Builder) IntToPtr(v Value) *Instr {
	return b.value(&Instr{Op: OpIntToPtr, T: Ptr, Args: []Value{v}})
}

// Phi emits a phi node; incoming values and blocks must be parallel slices.
func (b *Builder) Phi(t Type, vals []Value, blocks []*Block) *Instr {
	return b.value(&Instr{Op: OpPhi, T: t, Args: vals, Blocks: blocks})
}

// Select emits a conditional select.
func (b *Builder) Select(cond, a, c Value) *Instr {
	return b.value(&Instr{Op: OpSelect, T: a.Type(), Args: []Value{cond, a, c}})
}

// Call emits a call; callee may be a *Function (direct) or any ptr-typed
// value (indirect). retType Void makes it a statement call.
func (b *Builder) Call(retType Type, callee Value, args ...Value) *Instr {
	// Calls always carry a result name, even when void, which keeps the
	// textual format uniform; void results simply cannot be used.
	return b.value(&Instr{Op: OpCall, T: retType, Args: append([]Value{callee}, args...)})
}

// Ret emits a return; v may be nil for void returns.
func (b *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, T: Void}
	if v != nil {
		in.Args = []Value{v}
	}
	return b.emit(in)
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *Block) *Instr {
	return b.emit(&Instr{Op: OpBr, T: Void, Blocks: []*Block{target}})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, then, els *Block) *Instr {
	return b.emit(&Instr{Op: OpCondBr, T: Void, Args: []Value{cond}, Blocks: []*Block{then, els}})
}

// Unreachable emits an unreachable terminator.
func (b *Builder) Unreachable() *Instr {
	return b.emit(&Instr{Op: OpUnreachable, T: Void})
}

// Bin emits a binary scalar operation.
func (b *Builder) Bin(kind string, t Type, x, y Value) *Instr {
	return b.value(&Instr{Op: OpBin, T: t, Sub: kind, Args: []Value{x, y}})
}

// ICmp emits an integer/pointer comparison producing i1.
func (b *Builder) ICmp(pred string, x, y Value) *Instr {
	return b.value(&Instr{Op: OpICmp, T: I1, Sub: pred, Args: []Value{x, y}})
}

// Int returns an integer constant.
func Int(v int64, t IntType) *ConstInt { return &ConstInt{Val: v, T: t} }

// Null returns the null pointer constant.
func Null() *ConstNull { return &ConstNull{} }

// GlobalVar adds a global variable to the builder's module.
func (b *Builder) GlobalVar(name string, elem Type, init Value, linkage Linkage) *Global {
	g := &Global{GName: name, Elem: elem, Init: init, Linkage: linkage}
	if err := b.M.AddGlobal(g); err != nil {
		panic(err)
	}
	return g
}
