package ir

import "strconv"

// Builder constructs MIR functions programmatically. It is used by the
// mini-C frontend's lowering pass and by the synthetic workload generator.
type Builder struct {
	M    *Module
	F    *Function
	B    *Block
	next int // counter for auto-generated value names
	// names spells the next auto-generated names back to back
	// ("t17t18t19..."); fresh cuts them off the front.
	names string

	// Storage chunks (see chunk.go): instructions, operand lists,
	// block-target lists, blocks and their instruction lists, and
	// constants.
	instrs    []Instr
	vals      []Value
	targets   []*Block
	blockPool []Block
	lists     []*Instr
	consts    constPool
}

// NewBuilder returns a builder adding to module m.
func NewBuilder(m *Module) *Builder { return &Builder{M: m} }

// fresh returns a fresh SSA name. Names are cut from a string that
// spells a batch of them, so naming allocates once per batch, not once
// per instruction.
func (b *Builder) fresh() string {
	b.next++
	if b.names == "" {
		var buf [256]byte
		batch := buf[:0]
		for n := b.next; len(batch) <= len(buf)-21; n++ {
			batch = strconv.AppendInt(append(batch, 't'), int64(n), 10)
		}
		b.names = string(batch)
	}
	w := 2 // "t" and the last digit
	for n := b.next; n >= 10; n /= 10 {
		w++
	}
	name := b.names[:w]
	b.names = b.names[w:]
	return name
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
	blk := &carve(&b.blockPool, 1)[0]
	blk.BName, blk.Parent = name, b.F
	b.F.Blocks = append(b.F.Blocks, blk)
	return blk
}

// SetBlock moves the insertion point to blk.
func (b *Builder) SetBlock(blk *Block) { b.B = blk }

// emit stores in in the instruction chunk, appends it to the current
// block and returns it.
func (b *Builder) emit(in Instr) *Instr {
	p := &carve(&b.instrs, 1)[0]
	*p = in
	p.Parent = b.B
	b.appendInstr(b.B, p)
	return p
}

// appendInstr appends in to blk.Instrs, a window of the lists chunk. A
// window that ends where the chunk's used part ends grows in place;
// any other moves to the end of the chunk first, which happens only
// when the insertion point returns to a block that already has
// instructions.
func (b *Builder) appendInstr(blk *Block, in *Instr) {
	n, l := len(blk.Instrs), b.lists
	if n > 0 && n == cap(blk.Instrs) && n <= len(l) && len(l) < cap(l) && &blk.Instrs[0] == &l[len(l)-n] {
		b.lists = append(l, in)
		blk.Instrs = b.lists[len(l)-n : len(l)+1 : len(l)+1]
		return
	}
	if cap(l)-len(l) < n+1 {
		// Leave the moved list room to grow in place.
		b.lists = make([]*Instr, 0, max(min(2*cap(l), maxChunk), minChunk, 2*(n+1)))
	}
	w := carve(&b.lists, n+1)
	copy(w, blk.Instrs)
	w[n] = in
	blk.Instrs = w
}

// value emits a result-producing instruction with an auto-generated name.
func (b *Builder) value(in Instr) *Instr {
	in.IName = b.fresh()
	return b.emit(in)
}

// ops returns first and rest as one operand list cut from the operand
// chunk.
func (b *Builder) ops(first Value, rest ...Value) []Value {
	args := carve(&b.vals, 1+len(rest))
	args[0] = first
	copy(args[1:], rest)
	return args
}

// Alloca emits a stack allocation of type t.
func (b *Builder) Alloca(t Type) *Instr {
	return b.value(Instr{Op: OpAlloca, T: Ptr, Ty: t})
}

// Load emits a typed load through p.
func (b *Builder) Load(t Type, p Value) *Instr {
	return b.value(Instr{Op: OpLoad, T: t, Ty: t, Args: b.ops(p)})
}

// Store emits a store of v through p.
func (b *Builder) Store(v, p Value) *Instr {
	return b.emit(Instr{Op: OpStore, T: Void, Args: b.ops(v, p)})
}

// GEP emits pointer arithmetic over base type t.
func (b *Builder) GEP(t Type, p Value, indices ...Value) *Instr {
	return b.value(Instr{Op: OpGEP, T: Ptr, Ty: t, Args: b.ops(p, indices...)})
}

// Memcpy emits a raw memory copy.
func (b *Builder) Memcpy(dst, src, n Value) *Instr {
	return b.emit(Instr{Op: OpMemcpy, T: Void, Args: b.ops(dst, src, n)})
}

// Bitcast emits a value reinterpretation to type t.
func (b *Builder) Bitcast(t Type, v Value) *Instr {
	return b.value(Instr{Op: OpBitcast, T: t, Ty: t, Args: b.ops(v)})
}

// PtrToInt emits a pointer-to-integer conversion (address exposure).
func (b *Builder) PtrToInt(p Value) *Instr {
	return b.value(Instr{Op: OpPtrToInt, T: I64, Args: b.ops(p)})
}

// IntToPtr emits an integer-to-pointer conversion (unknown-origin pointer).
func (b *Builder) IntToPtr(v Value) *Instr {
	return b.value(Instr{Op: OpIntToPtr, T: Ptr, Args: b.ops(v)})
}

// Phi emits a phi node; incoming values and blocks must be parallel
// slices. Both are copied.
func (b *Builder) Phi(t Type, vals []Value, blocks []*Block) *Instr {
	args := carve(&b.vals, len(vals))
	copy(args, vals)
	return b.value(Instr{Op: OpPhi, T: t, Args: args, Blocks: b.blocks(blocks...)})
}

// Select emits a conditional select.
func (b *Builder) Select(cond, a, c Value) *Instr {
	return b.value(Instr{Op: OpSelect, T: a.Type(), Args: b.ops(cond, a, c)})
}

// Call emits a call; callee may be a *Function (direct) or any ptr-typed
// value (indirect). retType Void makes it a statement call.
func (b *Builder) Call(retType Type, callee Value, args ...Value) *Instr {
	// Calls always carry a result name, even when void, which keeps the
	// textual format uniform; void results simply cannot be used.
	return b.value(Instr{Op: OpCall, T: retType, Args: b.ops(callee, args...)})
}

// Ret emits a return; v may be nil for void returns.
func (b *Builder) Ret(v Value) *Instr {
	in := Instr{Op: OpRet, T: Void}
	if v != nil {
		in.Args = b.ops(v)
	}
	return b.emit(in)
}

// Br emits an unconditional branch.
func (b *Builder) Br(target *Block) *Instr {
	return b.emit(Instr{Op: OpBr, T: Void, Blocks: b.blocks(target)})
}

// CondBr emits a conditional branch.
func (b *Builder) CondBr(cond Value, then, els *Block) *Instr {
	return b.emit(Instr{Op: OpCondBr, T: Void, Args: b.ops(cond), Blocks: b.blocks(then, els)})
}

// blocks returns targets as one block-target list cut from its chunk.
func (b *Builder) blocks(targets ...*Block) []*Block {
	w := carve(&b.targets, len(targets))
	copy(w, targets)
	return w
}

// Unreachable emits an unreachable terminator.
func (b *Builder) Unreachable() *Instr {
	return b.emit(Instr{Op: OpUnreachable, T: Void})
}

// Bin emits a binary scalar operation.
func (b *Builder) Bin(kind string, t Type, x, y Value) *Instr {
	return b.value(Instr{Op: OpBin, T: t, Sub: kind, Args: b.ops(x, y)})
}

// ICmp emits an integer/pointer comparison producing i1.
func (b *Builder) ICmp(pred string, x, y Value) *Instr {
	return b.value(Instr{Op: OpICmp, T: I1, Sub: pred, Args: b.ops(x, y)})
}

// Int returns an integer constant cut from the builder's constant chunk.
func (b *Builder) Int(v int64, t IntType) *ConstInt { return b.consts.intConst(v, t) }

// Float returns a float constant cut from the builder's constant chunk.
func (b *Builder) Float(v float64, t FloatType) *ConstFloat { return b.consts.floatConst(v, t) }

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
