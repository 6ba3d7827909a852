package cfront

import (
	"fmt"
	"strconv"

	"github.com/pip-analysis/pip/internal/ir"
)

// Compile parses and lowers a mini-C translation unit to an MIR module.
func Compile(name, src string) (*ir.Module, error) {
	file, err := ParseC(src)
	if err != nil {
		return nil, err
	}
	return lower(name, file)
}

// lower lowers a parsed translation unit to a verified MIR module.
func lower(name string, file *File) (m *ir.Module, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*compileError); ok {
				m, err = nil, ce
				return
			}
			panic(r)
		}
	}()
	lw := &lowerer{
		mod:     ir.NewModule(name),
		globals: map[string]*symbol{},
	}
	lw.b = ir.NewBuilder(lw.mod)
	lw.lowerFile(file)
	if verr := ir.Verify(lw.mod); verr != nil {
		return nil, fmt.Errorf("internal lowering error: %w", verr)
	}
	return lw.mod, nil
}

// MustCompile is Compile that panics on error; for tests and examples.
func MustCompile(name, src string) *ir.Module {
	m, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return m
}

type compileError struct {
	line int
	msg  string
}

func (e *compileError) Error() string {
	if e.line <= 0 {
		// Errors raised after parsing (type lowering) have no source
		// position; "line 0" would point at nothing.
		return e.msg
	}
	return fmt.Sprintf("line %d: %s", e.line, e.msg)
}

// symbol binds a C name to its address value and type.
type symbol struct {
	ctype  CType
	val    ir.Value // address of the object, or the function value
	isFunc bool
}

type lowerer struct {
	mod *ir.Module
	b   *ir.Builder

	globals map[string]*symbol
	scopes  []map[string]*symbol

	curRet     CType
	terminated bool
	breakT     []*ir.Block
	contT      []*ir.Block
	strSeq     int
	blkSeq     int
	// usedNames tracks SSA names taken in the current function, so local
	// variables can keep their C names on their stack slots.
	usedNames map[string]bool
}

// namedAlloca emits a stack slot whose SSA name is derived from the C
// variable name, so analysis results stay readable ("callMe.r").
func (lw *lowerer) namedAlloca(name string, t ir.Type) *ir.Instr {
	slot := lw.b.Alloca(t)
	candidate := name
	// Avoid the builder's own tN namespace and duplicates from shadowing.
	if isBuilderTemp(candidate) {
		candidate += ".v"
	}
	for i := 2; lw.usedNames[candidate]; i++ {
		candidate = name + "." + strconv.Itoa(i)
	}
	lw.usedNames[candidate] = true
	slot.IName = candidate
	return slot
}

func isBuilderTemp(s string) bool {
	if len(s) < 2 || s[0] != 't' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func (lw *lowerer) errf(line int, format string, args ...interface{}) {
	panic(&compileError{line, fmt.Sprintf(format, args...)})
}

func (lw *lowerer) lookup(name string) *symbol {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if s, ok := lw.scopes[i][name]; ok {
			return s
		}
	}
	return lw.globals[name]
}

func (lw *lowerer) define(name string, s *symbol) {
	lw.scopes[len(lw.scopes)-1][name] = s
}

// freshBlock creates a uniquely named block.
func (lw *lowerer) freshBlock(hint string) *ir.Block {
	lw.blkSeq++
	return lw.b.NewBlock(hint + "." + strconv.Itoa(lw.blkSeq))
}

// setBlock moves the insertion point and resets termination tracking.
func (lw *lowerer) setBlock(blk *ir.Block) {
	lw.b.SetBlock(blk)
	lw.terminated = false
}

// lowerFile lowers the whole translation unit.
func (lw *lowerer) lowerFile(f *File) {
	// Merge duplicate declarations: a definition wins over externs.
	type fnInfo struct{ def *FuncDef }
	fns := map[string]*fnInfo{}
	var fnOrder []string
	for _, fd := range f.Funcs {
		info := fns[fd.Name]
		if info == nil {
			info = &fnInfo{def: fd}
			fns[fd.Name] = info
			fnOrder = append(fnOrder, fd.Name)
		} else if fd.Body != nil {
			info.def = fd
		}
	}
	type glInfo struct{ def *VarDecl }
	gls := map[string]*glInfo{}
	var glOrder []string
	for _, gd := range f.Globals {
		info := gls[gd.Name]
		if info == nil {
			gls[gd.Name] = &glInfo{def: gd}
			glOrder = append(glOrder, gd.Name)
		} else if gd.Storage != ExternStorage {
			gls[gd.Name].def = gd
		}
		_ = info
	}

	// Globals first.
	for _, name := range glOrder {
		gd := gls[name].def
		linkage := ir.Exported
		switch gd.Storage {
		case StaticStorage:
			linkage = ir.Internal
		case ExternStorage:
			linkage = ir.Declared
		}
		g := &ir.Global{GName: gd.Name, Elem: lw.irTypeOf(gd.Type), Linkage: linkage}
		if err := lw.mod.AddGlobal(g); err != nil {
			lw.errf(gd.Line, "%v", err)
		}
		lw.globals[gd.Name] = &symbol{ctype: gd.Type, val: g}
	}

	// Function symbols (so bodies can reference later definitions).
	for _, name := range fnOrder {
		fd := fns[name].def
		sig := lw.irFuncSig(fd.Type)
		var fn *ir.Function
		if fd.Body == nil {
			fn = &ir.Function{FName: fd.Name, Sig: sig, Linkage: ir.Declared}
			for i, pt := range sig.Params {
				fn.Params = append(fn.Params, &ir.Param{PName: "p" + strconv.Itoa(i), T: pt, Index: i, Parent: fn})
			}
		} else {
			linkage := ir.Exported
			if fd.Storage == StaticStorage {
				linkage = ir.Internal
			}
			fn = &ir.Function{FName: fd.Name, Sig: sig, Linkage: linkage}
			for i, pt := range sig.Params {
				pn := "p" + strconv.Itoa(i)
				if i < len(fd.Params) && fd.Params[i] != "" {
					pn = fd.Params[i]
				}
				fn.Params = append(fn.Params, &ir.Param{PName: pn, T: pt, Index: i, Parent: fn})
			}
		}
		if err := lw.mod.AddFunc(fn); err != nil {
			lw.errf(fd.Line, "%v", err)
		}
		lw.globals[fd.Name] = &symbol{ctype: fd.Type, val: fn, isFunc: true}
	}

	// Global initializers.
	for _, name := range glOrder {
		gd := gls[name].def
		if gd.Init == nil || gd.Storage == ExternStorage {
			continue
		}
		g := lw.mod.Global(gd.Name)
		g.Init = lw.constInit(gd.Init, gd.Type)
	}

	// Function bodies.
	for _, name := range fnOrder {
		fd := fns[name].def
		if fd.Body != nil {
			lw.lowerFuncBody(fd, lw.mod.Func(fd.Name))
		}
	}
}

// constInit lowers a global initializer to a constant value.
func (lw *lowerer) constInit(e Expr, want CType) ir.Value {
	switch e := e.(type) {
	case *IntLit:
		if it, ok := lw.irTypeOf(want).(ir.IntType); ok {
			return lw.b.Int(e.Val, it)
		}
		if e.Val == 0 && isPointerLike(want) {
			return ir.Null()
		}
		return lw.b.Int(e.Val, ir.I64)
	case *FloatLit:
		ft, ok := lw.irTypeOf(want).(ir.FloatType)
		if !ok {
			ft = ir.F64
		}
		return lw.b.Float(e.Val, ft)
	case *NullLit:
		return ir.Null()
	case *StrLit:
		return lw.stringGlobal(e.Val)
	case *Unary:
		if e.Op == "&" {
			if id, ok := e.X.(*Ident); ok {
				sym := lw.globals[id.Name]
				if sym == nil {
					lw.errf(e.Line, "unknown symbol %s in initializer", id.Name)
				}
				return sym.val
			}
		}
	case *Ident:
		sym := lw.globals[e.Name]
		if sym != nil && (sym.isFunc || isArr(sym.ctype)) {
			return sym.val
		}
	case *CastExpr:
		return lw.constInit(e.X, e.T)
	case *InitList:
		agg := &ir.ConstAggregate{T: lw.irTypeOf(want)}
		switch want := want.(type) {
		case *Arr:
			for _, el := range e.Elems {
				agg.Elems = append(agg.Elems, lw.constInit(el, want.Elem))
			}
		case *StructRef:
			if want.Def == nil {
				lw.errf(e.Line, "initializer for undefined struct")
			}
			for i, el := range e.Elems {
				if i >= len(want.Def.Fields) {
					lw.errf(e.Line, "too many initializers for struct %s", want.Name)
				}
				agg.Elems = append(agg.Elems, lw.constInit(el, want.Def.Fields[i].Type))
			}
		default:
			lw.errf(e.Line, "brace initializer for non-aggregate type %s", want)
		}
		return agg
	}
	lw.errf(e.exprLine(), "unsupported global initializer")
	return nil
}

func isArr(t CType) bool {
	_, ok := t.(*Arr)
	return ok
}

// stringGlobal interns a string literal as an internal byte-array global.
func (lw *lowerer) stringGlobal(s string) *ir.Global {
	lw.strSeq++
	g := &ir.Global{
		GName:   "str." + strconv.Itoa(lw.strSeq),
		Elem:    &ir.ArrayType{Elem: ir.I8, Len: len(s) + 1},
		Linkage: ir.Internal,
	}
	if err := lw.mod.AddGlobal(g); err != nil {
		panic(err)
	}
	return g
}

// lowerFuncBody lowers a function definition.
func (lw *lowerer) lowerFuncBody(fd *FuncDef, fn *ir.Function) {
	lw.b.F = fn
	entry := &ir.Block{BName: "entry", Parent: fn}
	fn.Blocks = append(fn.Blocks, entry)
	lw.setBlock(entry)
	lw.curRet = fd.Type.Ret
	lw.scopes = []map[string]*symbol{{}}
	lw.breakT, lw.contT = nil, nil
	lw.usedNames = map[string]bool{}
	for _, prm := range fn.Params {
		lw.usedNames[prm.PName] = true
	}

	// Spill parameters to stack slots so their address can be taken.
	for i, prm := range fn.Params {
		pt := decay(fd.Type.Params[i])
		slot := lw.namedAlloca(prm.PName+".addr", lw.irTypeOf(pt))
		lw.b.Store(prm, slot)
		if i < len(fd.Params) && fd.Params[i] != "" {
			lw.define(fd.Params[i], &symbol{ctype: pt, val: slot})
		}
	}
	lw.lowerBlock(fd.Body)
	if !lw.terminated {
		lw.emitDefaultReturn()
	}
	lw.scopes = nil
}

func (lw *lowerer) emitDefaultReturn() {
	if isVoid(lw.curRet) {
		lw.b.Ret(nil)
	} else {
		lw.b.Ret(lw.zeroValue(lw.curRet))
	}
	lw.terminated = true
}

func (lw *lowerer) zeroValue(t CType) ir.Value {
	switch it := lw.irTypeOf(t).(type) {
	case ir.IntType:
		return lw.b.Int(0, it)
	case ir.FloatType:
		return lw.b.Float(0, it)
	case ir.PointerType:
		return ir.Null()
	default:
		return &ir.ConstUndef{T: it}
	}
}

// ensureLive starts a fresh block if the current one is terminated, so
// statements after return/break still lower into valid IR (they are
// unreachable).
func (lw *lowerer) ensureLive() {
	if lw.terminated {
		lw.setBlock(lw.freshBlock("dead"))
	}
}

// lowerStaticLocal hoists a function-scoped static (or extern) declaration
// to a module-level global.
func (lw *lowerer) lowerStaticLocal(vd *VarDecl) {
	name := lw.b.F.FName + "." + vd.Name
	for i := 2; lw.mod.Global(name) != nil; i++ {
		name = lw.b.F.FName + "." + vd.Name + "." + strconv.Itoa(i)
	}
	linkage := ir.Internal
	if vd.Storage == ExternStorage {
		linkage = ir.Declared
		name = vd.Name // extern declarations name the real symbol
		if existing := lw.mod.Global(name); existing != nil {
			lw.define(vd.Name, &symbol{ctype: vd.Type, val: existing})
			return
		}
	}
	g := &ir.Global{GName: name, Elem: lw.irTypeOf(vd.Type), Linkage: linkage}
	if err := lw.mod.AddGlobal(g); err != nil {
		lw.errf(vd.Line, "%v", err)
	}
	if vd.Init != nil && vd.Storage == StaticStorage {
		g.Init = lw.constInit(vd.Init, vd.Type)
	}
	lw.define(vd.Name, &symbol{ctype: vd.Type, val: g})
}

// lowerLocalInit initializes a fresh stack slot, supporting brace
// initializers for arrays and structs.
func (lw *lowerer) lowerLocalInit(slot ir.Value, t CType, init Expr, line int) {
	lst, isList := init.(*InitList)
	if !isList {
		v, vt := lw.rvalue(init)
		lw.storeConverted(v, vt, slot, t, line)
		return
	}
	switch t := t.(type) {
	case *Arr:
		elemIR := lw.irTypeOf(t.Elem)
		for i, e := range lst.Elems {
			addr := lw.b.GEP(elemIR, slot, lw.b.Int(int64(i), ir.I64))
			lw.lowerLocalInit(addr, t.Elem, e, line)
		}
	case *StructRef:
		if t.Def == nil {
			lw.errf(line, "initializer for undefined struct")
		}
		for i, e := range lst.Elems {
			if i >= len(t.Def.Fields) {
				lw.errf(line, "too many initializers for struct %s", t.Name)
			}
			f := t.Def.Fields[i]
			var addr ir.Value = slot
			if !t.Def.Union {
				addr = lw.b.GEP(lw.irStruct(t.Def), slot,
					lw.b.Int(0, ir.I64), lw.b.Int(int64(i), ir.I64))
			}
			lw.lowerLocalInit(addr, f.Type, e, line)
		}
	default:
		lw.errf(line, "brace initializer for non-aggregate type %s", t)
	}
}

func (lw *lowerer) lowerBlock(b *Block) {
	lw.scopes = append(lw.scopes, map[string]*symbol{})
	for _, s := range b.Stmts {
		lw.lowerStmt(s)
	}
	lw.scopes = lw.scopes[:len(lw.scopes)-1]
}

func (lw *lowerer) lowerStmt(s Stmt) {
	lw.ensureLive()
	switch s := s.(type) {
	case *Block:
		lw.lowerBlock(s)
	case *DeclStmt:
		for _, vd := range s.Vars {
			if vd.Storage == StaticStorage || vd.Storage == ExternStorage {
				lw.lowerStaticLocal(vd)
				continue
			}
			slot := lw.namedAlloca(vd.Name, lw.irTypeOf(vd.Type))
			lw.define(vd.Name, &symbol{ctype: vd.Type, val: slot})
			if vd.Init != nil {
				lw.lowerLocalInit(slot, vd.Type, vd.Init, vd.Line)
			}
		}
	case *ExprStmt:
		lw.rvalue(s.X)
	case *If:
		c := lw.toBool(lw.rvalue(s.C))
		thenB := lw.freshBlock("if.then")
		endB := lw.freshBlock("if.end")
		elseB := endB
		if s.Else != nil {
			elseB = lw.freshBlock("if.else")
		}
		lw.b.CondBr(c, thenB, elseB)
		lw.setBlock(thenB)
		lw.lowerStmt(s.Then)
		if !lw.terminated {
			lw.b.Br(endB)
		}
		if s.Else != nil {
			lw.setBlock(elseB)
			lw.lowerStmt(s.Else)
			if !lw.terminated {
				lw.b.Br(endB)
			}
		}
		lw.setBlock(endB)
	case *While:
		condB := lw.freshBlock("loop.cond")
		bodyB := lw.freshBlock("loop.body")
		endB := lw.freshBlock("loop.end")
		if s.Post {
			lw.b.Br(bodyB) // do-while enters the body first
		} else {
			lw.b.Br(condB)
		}
		lw.setBlock(condB)
		c := lw.toBool(lw.rvalue(s.C))
		lw.b.CondBr(c, bodyB, endB)
		lw.setBlock(bodyB)
		lw.breakT = append(lw.breakT, endB)
		lw.contT = append(lw.contT, condB)
		lw.lowerStmt(s.Body)
		lw.breakT = lw.breakT[:len(lw.breakT)-1]
		lw.contT = lw.contT[:len(lw.contT)-1]
		if !lw.terminated {
			lw.b.Br(condB)
		}
		lw.setBlock(endB)
	case *For:
		lw.scopes = append(lw.scopes, map[string]*symbol{})
		if s.Init != nil {
			lw.lowerStmt(s.Init)
		}
		condB := lw.freshBlock("for.cond")
		bodyB := lw.freshBlock("for.body")
		stepB := lw.freshBlock("for.step")
		endB := lw.freshBlock("for.end")
		lw.b.Br(condB)
		lw.setBlock(condB)
		if s.Cond != nil {
			c := lw.toBool(lw.rvalue(s.Cond))
			lw.b.CondBr(c, bodyB, endB)
		} else {
			lw.b.Br(bodyB)
		}
		lw.setBlock(bodyB)
		lw.breakT = append(lw.breakT, endB)
		lw.contT = append(lw.contT, stepB)
		lw.lowerStmt(s.Body)
		lw.breakT = lw.breakT[:len(lw.breakT)-1]
		lw.contT = lw.contT[:len(lw.contT)-1]
		if !lw.terminated {
			lw.b.Br(stepB)
		}
		lw.setBlock(stepB)
		if s.Step != nil {
			lw.rvalue(s.Step)
		}
		lw.b.Br(condB)
		lw.setBlock(endB)
		lw.scopes = lw.scopes[:len(lw.scopes)-1]
	case *Switch:
		x, _ := lw.rvalue(s.X)
		endB := lw.freshBlock("switch.end")
		bodyBs := make([]*ir.Block, len(s.Cases))
		for i := range s.Cases {
			bodyBs[i] = lw.freshBlock("case")
		}
		defaultTarget := endB
		for i := range s.Cases {
			if s.Cases[i].Val == nil {
				defaultTarget = bodyBs[i]
			}
		}
		for i := range s.Cases {
			if s.Cases[i].Val == nil {
				continue
			}
			v, _ := lw.rvalue(s.Cases[i].Val)
			cond := lw.b.ICmp("eq", x, v)
			next := lw.freshBlock("check")
			lw.b.CondBr(cond, bodyBs[i], next)
			lw.setBlock(next)
		}
		lw.b.Br(defaultTarget)
		lw.breakT = append(lw.breakT, endB)
		for i := range s.Cases {
			lw.setBlock(bodyBs[i])
			for _, st := range s.Cases[i].Body {
				lw.lowerStmt(st)
			}
			if !lw.terminated {
				if i+1 < len(s.Cases) {
					lw.b.Br(bodyBs[i+1]) // C fallthrough
				} else {
					lw.b.Br(endB)
				}
			}
		}
		lw.breakT = lw.breakT[:len(lw.breakT)-1]
		lw.setBlock(endB)
	case *Return:
		if s.X == nil {
			lw.b.Ret(nil)
		} else {
			v, vt := lw.rvalue(s.X)
			lw.b.Ret(lw.convert(v, vt, lw.curRet, s.Line))
		}
		lw.terminated = true
	case *Break:
		if len(lw.breakT) == 0 {
			lw.errf(s.Line, "break outside a loop")
		}
		lw.b.Br(lw.breakT[len(lw.breakT)-1])
		lw.terminated = true
	case *Continue:
		if len(lw.contT) == 0 {
			lw.errf(s.Line, "continue outside a loop")
		}
		lw.b.Br(lw.contT[len(lw.contT)-1])
		lw.terminated = true
	default:
		panic(fmt.Sprintf("lowerStmt: %T", s))
	}
}
