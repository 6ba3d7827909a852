package ir

import (
	"fmt"
	"strconv"
)

// Parse reads a module in MIR textual syntax. The format round-trips with
// Print. Named structs must be defined before use; globals and functions may
// reference each other freely (initializers and call targets are resolved
// after the whole module has been read).
func Parse(src string) (*Module, error) {
	p := &parser{lx: newLexer(src), m: NewModule("")}
	p.tok = p.lx.scan()
	err := p.parseModule()
	// A lexical error anywhere in the input takes precedence over a parse
	// error, as if the whole input had been tokenized first.
	if err != nil {
		p.lx.drain()
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	if err != nil {
		return nil, err
	}
	return p.m, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

// parser pulls tokens from the lexer through a two-token window: tok is
// the current token, ahead the one after it once peek2 has scanned it.
type parser struct {
	lx       lexer
	tok      token
	ahead    token
	hasAhead bool
	m        *Module

	// pending module-level symbol references, resolved at the end.
	globalInits []pendingInit
	callCounter int

	// Per-function scratch, reused from one function body to the next:
	// the body's blocks and instruction stubs, the stubs' operand and
	// block references, and the body's block and local names.
	fblocks []*Block
	stubs   []instrStub
	refs    []operandRef
	brefs   []string
	blocks  map[string]*Block
	locals  map[string]Value

	// Storage chunks of the module (see chunk.go); a function body's
	// instructions and lists are sized for it in resolveFuncRefs.
	blockPool []Block
	consts    constPool
}

type pendingInit struct {
	g    *Global
	agg  *ConstAggregate // when non-nil, resolve into agg.Elems[idx]
	idx  int
	name string
	line int
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if p.hasAhead {
		p.tok, p.hasAhead = p.ahead, false
	} else {
		p.tok = p.lx.scan()
	}
	return t
}

// peek2 returns the token after the current one.
func (p *parser) peek2() token {
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.lx.scan(), true
	}
	return p.ahead
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(glyph string) error {
	t := p.next()
	if t.kind != tPunct || t.text != glyph {
		return p.errf(t, "expected %q, found %s", glyph, t)
	}
	return nil
}

func (p *parser) acceptPunct(glyph string) bool {
	if p.peek().kind == tPunct && p.peek().text == glyph {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptIdent(word string) bool {
	if p.peek().kind == tIdent && p.peek().text == word {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseModule() error {
	for {
		t := p.peek()
		switch {
		case t.kind == tEOF:
			return p.resolveModuleRefs()
		case t.kind == tIdent && t.text == "module":
			p.next()
			s := p.next()
			if s.kind != tString {
				return p.errf(s, "module name must be a string")
			}
			p.m.Name = s.text
		case t.kind == tIdent && t.text == "struct":
			if err := p.parseStructDef(); err != nil {
				return err
			}
		case t.kind == tIdent && t.text == "global":
			if err := p.parseGlobal(Exported); err != nil {
				return err
			}
		case t.kind == tIdent && t.text == "declare":
			p.next()
			switch {
			case p.acceptIdent("global"):
				if err := p.parseGlobal(Declared); err != nil {
					return err
				}
			case p.acceptIdent("func"):
				if err := p.parseFuncDecl(); err != nil {
					return err
				}
			default:
				return p.errf(p.peek(), "declare must be followed by global or func")
			}
		case t.kind == tIdent && t.text == "func":
			if err := p.parseFuncDef(); err != nil {
				return err
			}
		default:
			return p.errf(t, "unexpected %s at module level", t)
		}
	}
}

func (p *parser) resolveModuleRefs() error {
	for _, pi := range p.globalInits {
		var v Value
		if g := p.m.Global(pi.name); g != nil {
			v = g
		} else if f := p.m.Func(pi.name); f != nil {
			v = f
		} else {
			return fmt.Errorf("line %d: initializer references unknown symbol @%s", pi.line, pi.name)
		}
		if pi.agg != nil {
			pi.agg.Elems[pi.idx] = v
		} else {
			pi.g.Init = v
		}
	}
	return nil
}

func (p *parser) parseStructDef() error {
	p.next() // struct
	name := p.next()
	if name.kind != tLocal {
		return p.errf(name, "struct name must be %%name")
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	s := &StructType{Name: name.text}
	for !p.acceptPunct("}") {
		if len(s.Fields) > 0 {
			if err := p.expectPunct(","); err != nil {
				return err
			}
		}
		ft, err := p.parseType()
		if err != nil {
			return err
		}
		s.Fields = append(s.Fields, ft)
	}
	return p.m.AddStruct(s)
}

func (p *parser) parseGlobal(defLinkage Linkage) error {
	if p.peek().kind == tIdent && p.peek().text == "global" {
		p.next()
	}
	name := p.next()
	if name.kind != tGlobalID {
		return p.errf(name, "global name must be @name")
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	elem, err := p.parseType()
	if err != nil {
		return err
	}
	g := &Global{GName: name.text, Elem: elem, Linkage: defLinkage}
	if defLinkage != Declared {
		if p.acceptPunct("=") {
			t := p.peek()
			switch {
			case t.kind == tGlobalID:
				p.next()
				p.globalInits = append(p.globalInits, pendingInit{g: g, name: t.text, line: t.line})
			case t.kind == tPunct && t.text == "{":
				agg, err := p.parseAggregateInit(elem)
				if err != nil {
					return err
				}
				g.Init = agg
			default:
				v, err := p.parseConst()
				if err != nil {
					return err
				}
				g.Init = v
			}
		}
		switch {
		case p.acceptIdent("internal"):
			g.Linkage = Internal
		case p.acceptIdent("export"):
			g.Linkage = Exported
		default:
			return p.errf(p.peek(), "global @%s needs a linkage (internal or export)", g.GName)
		}
	}
	return p.m.AddGlobal(g)
}

// parseAggregateInit parses "{ elem, elem, ... }" where elements are
// constants, symbol references, or nested aggregates.
func (p *parser) parseAggregateInit(t Type) (*ConstAggregate, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	agg := &ConstAggregate{T: t}
	for !p.acceptPunct("}") {
		if len(agg.Elems) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		et := p.peek()
		switch {
		case et.kind == tGlobalID:
			p.next()
			agg.Elems = append(agg.Elems, nil)
			p.globalInits = append(p.globalInits, pendingInit{
				agg: agg, idx: len(agg.Elems) - 1, name: et.text, line: et.line,
			})
		case et.kind == tPunct && et.text == "{":
			inner, err := p.parseAggregateInit(nil)
			if err != nil {
				return nil, err
			}
			agg.Elems = append(agg.Elems, inner)
		default:
			v, err := p.parseConst()
			if err != nil {
				return nil, err
			}
			agg.Elems = append(agg.Elems, v)
		}
	}
	return agg, nil
}

// parseType parses a MIR type.
func (p *parser) parseType() (Type, error) {
	t := p.next()
	switch t.kind {
	case tIdent:
		switch t.text {
		case "void":
			return Void, nil
		case "ptr":
			return Ptr, nil
		}
		if len(t.text) >= 2 && (t.text[0] == 'i' || t.text[0] == 'f') {
			if bits, err := strconv.Atoi(t.text[1:]); err == nil && bits > 0 && bits <= 128 {
				if t.text[0] == 'i' {
					return IntType{bits}, nil
				}
				return FloatType{bits}, nil
			}
		}
		return nil, p.errf(t, "unknown type %q", t.text)
	case tLocal:
		s := p.m.Struct(t.text)
		if s == nil {
			return nil, p.errf(t, "unknown struct type %%%s", t.text)
		}
		return s, nil
	case tPunct:
		switch t.text {
		case "[":
			n := p.next()
			if n.kind != tInt {
				return nil, p.errf(n, "array length must be an integer")
			}
			ln, err := strconv.Atoi(n.text)
			if err != nil || ln < 0 {
				return nil, p.errf(n, "array length %s out of range", n.text)
			}
			x := p.next()
			if x.kind != tIdent || x.text != "x" {
				return nil, p.errf(x, "expected 'x' in array type")
			}
			elem, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &ArrayType{Elem: elem, Len: ln}, nil
		case "{":
			s := &StructType{}
			for !p.acceptPunct("}") {
				if len(s.Fields) > 0 {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				ft, err := p.parseType()
				if err != nil {
					return nil, err
				}
				s.Fields = append(s.Fields, ft)
			}
			return s, nil
		}
	}
	return nil, p.errf(t, "expected a type, found %s", t)
}

// parseConst parses a self-contained constant operand (no symbol refs).
func (p *parser) parseConst() (Value, error) {
	t := p.next()
	switch t.kind {
	case tInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad integer %q", t.text)
		}
		ty := I64
		if p.acceptPunct(":") {
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			it, ok := pt.(IntType)
			if !ok {
				if ft, ok := pt.(FloatType); ok {
					// Print spells an integral float without a point or
					// an exponent ("2:f64"); ParseFloat keeps "-0" negative.
					f, _ := strconv.ParseFloat(t.text, 64)
					return p.consts.floatConst(f, ft), nil
				}
				return nil, p.errf(t, "integer constant with non-integer type %s", pt)
			}
			ty = it
		}
		return p.consts.intConst(v, ty), nil
	case tFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t, "bad float %q", t.text)
		}
		ty := F64
		if p.acceptPunct(":") {
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			ft, ok := pt.(FloatType)
			if !ok {
				return nil, p.errf(t, "float constant with non-float type %s", pt)
			}
			ty = ft
		}
		return p.consts.floatConst(v, ty), nil
	case tIdent:
		switch t.text {
		case "null":
			return &ConstNull{}, nil
		case "undef":
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			return &ConstUndef{T: ty}, nil
		case "zero":
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			return &ConstZero{T: ty}, nil
		}
	}
	return nil, p.errf(t, "expected a constant, found %s", t)
}

func (p *parser) parseSig(withNames bool) (*FuncType, []string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	sig := &FuncType{Ret: Void}
	var names []string
	for !p.acceptPunct(")") {
		if len(sig.Params) > 0 || sig.Variadic {
			if err := p.expectPunct(","); err != nil {
				return nil, nil, err
			}
		}
		if p.acceptIdent("...") {
			sig.Variadic = true
			continue
		}
		if sig.Variadic {
			return nil, nil, p.errf(p.peek(), "parameters after '...'")
		}
		if withNames {
			n := p.next()
			if n.kind != tLocal {
				return nil, nil, p.errf(n, "parameter name must be %%name")
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, nil, err
			}
			names = append(names, n.text)
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, nil, err
		}
		sig.Params = append(sig.Params, pt)
	}
	if p.acceptPunct("->") {
		rt, err := p.parseType()
		if err != nil {
			return nil, nil, err
		}
		sig.Ret = rt
	}
	return sig, names, nil
}

func (p *parser) parseFuncDecl() error {
	name := p.next()
	if name.kind != tGlobalID {
		return p.errf(name, "function name must be @name")
	}
	sig, _, err := p.parseSig(false)
	if err != nil {
		return err
	}
	f := &Function{FName: name.text, Sig: sig, Linkage: Declared}
	for i, pt := range sig.Params {
		f.Params = append(f.Params, &Param{PName: "p" + strconv.Itoa(i), T: pt, Index: i, Parent: f})
	}
	return p.m.AddFunc(f)
}

func (p *parser) parseFuncDef() error {
	p.next() // func
	name := p.next()
	if name.kind != tGlobalID {
		return p.errf(name, "function name must be @name")
	}
	sig, pnames, err := p.parseSig(true)
	if err != nil {
		return err
	}
	f := &Function{FName: name.text, Sig: sig, Linkage: Exported}
	for i, pt := range sig.Params {
		f.Params = append(f.Params, &Param{PName: pnames[i], T: pt, Index: i, Parent: f})
	}
	switch {
	case p.acceptIdent("internal"):
		f.Linkage = Internal
	case p.acceptIdent("export"):
		f.Linkage = Exported
	default:
		return p.errf(p.peek(), "func @%s needs a linkage (internal or export)", f.FName)
	}
	if err := p.m.AddFunc(f); err != nil {
		return err
	}
	return p.parseFuncBody(f)
}

// operandRef is an unresolved instruction operand.
type operandRef struct {
	val   Value  // resolved constant (non-nil) …
	local string // … or a %local reference …
	gname string // … or an @global reference
	line  int
}

func (p *parser) parseOperandRef() (operandRef, error) {
	t := p.peek()
	switch t.kind {
	case tLocal:
		p.next()
		return operandRef{local: t.text, line: t.line}, nil
	case tGlobalID:
		p.next()
		return operandRef{gname: t.text, line: t.line}, nil
	default:
		v, err := p.parseConst()
		if err != nil {
			return operandRef{}, err
		}
		return operandRef{val: v, line: t.line}, nil
	}
}

// instrStub is an instruction parsed in place, whose operands and block
// targets are still names: p.refs[refStart:refEnd] and
// p.brefs[brefStart:brefEnd].
type instrStub struct {
	in                 Instr
	refStart, refEnd   int
	brefStart, brefEnd int
	line               int
}

func (p *parser) parseFuncBody(f *Function) error {
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	p.fblocks, p.stubs, p.refs, p.brefs = p.fblocks[:0], p.stubs[:0], p.refs[:0], p.brefs[:0]
	if p.blocks == nil {
		p.blocks = map[string]*Block{}
	}
	clear(p.blocks)
	var cur *Block
	for !p.acceptPunct("}") {
		t := p.peek()
		if t.kind == tEOF {
			return p.errf(t, "unexpected end of input in func @%s", f.FName)
		}
		// Block label: ident ':'
		if t.kind == tIdent && p.peek2().kind == tPunct && p.peek2().text == ":" &&
			!isInstrStart(t.text) {
			p.next()
			p.next()
			if p.blocks[t.text] != nil {
				return p.errf(t, "duplicate block %s", t.text)
			}
			cur = &carve(&p.blockPool, 1)[0]
			cur.BName, cur.Parent = t.text, f
			p.blocks[t.text] = cur
			p.fblocks = append(p.fblocks, cur)
			continue
		}
		if cur == nil {
			return p.errf(t, "instruction before first block label")
		}
		p.stubs = append(p.stubs, instrStub{})
		s := &p.stubs[len(p.stubs)-1]
		if err := p.parseInstr(s); err != nil {
			return err
		}
		s.in.Parent = cur
	}
	return p.resolveFuncRefs(f)
}

// isInstrStart reports whether word begins an instruction (as opposed to a
// block label). Labels that collide with instruction keywords are rejected.
func isInstrStart(word string) bool {
	switch word {
	case "alloca", "load", "store", "gep", "memcpy", "bitcast", "ptrtoint",
		"inttoptr", "phi", "select", "call", "ret", "br", "condbr",
		"unreachable", "icmp":
		return true
	}
	return IsBinKind(word)
}

// resolveFuncRefs moves the body's stubs into one instruction chunk sized
// for the body, cuts each block's instruction list from one list chunk,
// and resolves operand and block names.
func (p *parser) resolveFuncRefs(f *Function) error {
	stubs := p.stubs
	instrs := make([]Instr, len(stubs))
	list := make([]*Instr, len(stubs))
	// The function's block list and its block targets share one chunk.
	nb := len(p.fblocks)
	targets := make([]*Block, nb+len(p.brefs))
	if nb > 0 {
		f.Blocks = targets[:nb:nb]
		copy(f.Blocks, p.fblocks)
	}
	targets = targets[nb:]
	for i := range stubs {
		instrs[i] = stubs[i].in
		list[i] = &instrs[i]
	}
	// Each block's stubs are contiguous and in block order.
	start := 0
	for _, blk := range f.Blocks {
		end := start
		for end < len(instrs) && instrs[end].Parent == blk {
			end++
		}
		if end > start {
			blk.Instrs = list[start:end:end]
		}
		start = end
	}

	if p.locals == nil {
		p.locals = make(map[string]Value, len(f.Params)+len(stubs))
	}
	locals := p.locals
	clear(locals)
	for _, prm := range f.Params {
		locals[prm.PName] = prm
	}
	for i, in := range list {
		if in.Op.HasResult() {
			if _, dup := locals[in.IName]; dup {
				return fmt.Errorf("line %d: duplicate definition of %%%s", stubs[i].line, in.IName)
			}
			locals[in.IName] = in
		}
	}
	vals := make([]Value, len(p.refs))
	for i, in := range list {
		s := &stubs[i]
		for j := s.refStart; j < s.refEnd; j++ {
			v, err := p.resolveOperand(p.refs[j], locals)
			if err != nil {
				return err
			}
			vals[j] = v
		}
		if s.refEnd > s.refStart {
			in.Args = vals[s.refStart:s.refEnd:s.refEnd]
		}
		for j := s.brefStart; j < s.brefEnd; j++ {
			blk := p.blocks[p.brefs[j]]
			if blk == nil {
				return fmt.Errorf("line %d: unknown block %s", s.line, p.brefs[j])
			}
			targets[j] = blk
		}
		if s.brefEnd > s.brefStart {
			in.Blocks = targets[s.brefStart:s.brefEnd:s.brefEnd]
		}
		if in.Op == OpSelect && in.T == nil {
			in.T = in.Args[1].Type()
		}
	}
	return nil
}

func (p *parser) resolveOperand(ref operandRef, locals map[string]Value) (Value, error) {
	switch {
	case ref.val != nil:
		return ref.val, nil
	case ref.local != "":
		v := locals[ref.local]
		if v == nil {
			return nil, fmt.Errorf("line %d: unknown local %%%s", ref.line, ref.local)
		}
		return v, nil
	default:
		if g := p.m.Global(ref.gname); g != nil {
			return g, nil
		}
		if fn := p.m.Func(ref.gname); fn != nil {
			return fn, nil
		}
		return nil, fmt.Errorf("line %d: unknown symbol @%s", ref.line, ref.gname)
	}
}

// parseInstr parses one instruction into stub, leaving its operands and
// block targets unresolved.
func (p *parser) parseInstr(stub *instrStub) error {
	t := p.peek()
	stub.in.T = Void
	stub.refStart, stub.brefStart, stub.line = len(p.refs), len(p.brefs), t.line
	// Optional "%name =" result.
	if t.kind == tLocal {
		p.next()
		stub.in.IName = t.text
		if err := p.expectPunct("="); err != nil {
			return err
		}
		t = p.peek()
	}
	if t.kind != tIdent {
		return p.errf(t, "expected an instruction, found %s", t)
	}
	op := p.next().text

	switch {
	case op == "alloca":
		stub.in.Op = OpAlloca
		stub.in.T = Ptr
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.Ty = ty
	case op == "load":
		stub.in.Op = OpLoad
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.T, stub.in.Ty = ty, ty
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
	case op == "store":
		stub.in.Op = OpStore
		if err := p.operand(); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
	case op == "gep":
		stub.in.Op = OpGEP
		stub.in.T = Ptr
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.Ty = ty
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
		for p.acceptPunct(",") {
			if err := p.operand(); err != nil {
				return err
			}
		}
	case op == "memcpy":
		stub.in.Op = OpMemcpy
		for i := 0; i < 3; i++ {
			if i > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			if err := p.operand(); err != nil {
				return err
			}
		}
	case op == "bitcast":
		stub.in.Op = OpBitcast
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.T, stub.in.Ty = ty, ty
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
	case op == "ptrtoint":
		stub.in.Op = OpPtrToInt
		stub.in.T = I64
		if err := p.operand(); err != nil {
			return err
		}
	case op == "inttoptr":
		stub.in.Op = OpIntToPtr
		stub.in.T = Ptr
		if err := p.operand(); err != nil {
			return err
		}
	case op == "phi":
		stub.in.Op = OpPhi
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.T = ty
		for p.acceptPunct(",") {
			if err := p.expectPunct("["); err != nil {
				return err
			}
			if err := p.operand(); err != nil {
				return err
			}
			if err := p.expectPunct(","); err != nil {
				return err
			}
			if err := p.blockRef(); err != nil {
				return err
			}
			if err := p.expectPunct("]"); err != nil {
				return err
			}
		}
		if len(p.refs) == stub.refStart {
			return p.errf(t, "phi needs at least one incoming value")
		}
	case op == "select":
		stub.in.Op = OpSelect
		for i := 0; i < 3; i++ {
			if i > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			if err := p.operand(); err != nil {
				return err
			}
		}
		// The result type is fixed after resolution; recorded lazily as
		// the type of the second operand in resolveTypes below. Select of
		// locals cannot know its type here, so leave T nil and let the
		// resolver patch it.
		stub.in.T = nil
	case op == "call":
		stub.in.Op = OpCall
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.T = ty
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil { // callee
			return err
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !p.acceptPunct(")") {
			if len(p.refs)-stub.refStart > 1 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			if err := p.operand(); err != nil {
				return err
			}
		}
	case op == "ret":
		stub.in.Op = OpRet
		// Optional value: anything that can start an operand.
		nt := p.peek()
		if nt.kind == tLocal || nt.kind == tGlobalID || nt.kind == tInt || nt.kind == tFloat ||
			nt.kind == tIdent && (nt.text == "null" || nt.text == "undef" || nt.text == "zero") {
			if err := p.operand(); err != nil {
				return err
			}
		}
	case op == "br":
		stub.in.Op = OpBr
		if err := p.blockRef(); err != nil {
			return err
		}
	case op == "condbr":
		stub.in.Op = OpCondBr
		if err := p.operand(); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.blockRef(); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.blockRef(); err != nil {
			return err
		}
	case op == "unreachable":
		stub.in.Op = OpUnreachable
	case op == "icmp":
		stub.in.Op = OpICmp
		stub.in.T = I1
		pred := p.next()
		if pred.kind != tIdent || !IsICmpPred(pred.text) {
			return p.errf(pred, "expected an icmp predicate, found %s", pred)
		}
		stub.in.Sub = pred.text
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
	case IsBinKind(op):
		stub.in.Op = OpBin
		stub.in.Sub = op
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		stub.in.T = ty
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.operand(); err != nil {
			return err
		}
	default:
		return p.errf(t, "unknown instruction %q", op)
	}
	if stub.in.Op.HasResult() && stub.in.IName == "" {
		if stub.in.Op == OpCall && TypesEqual(stub.in.T, Void) {
			// Statement-form void call: synthesize a result name so the
			// instruction model stays uniform.
			p.callCounter++
			stub.in.IName = "call." + strconv.Itoa(p.callCounter)
		} else {
			return p.errf(t, "%s requires a result name", op)
		}
	}
	if !stub.in.Op.HasResult() && stub.in.IName != "" {
		return p.errf(t, "%s does not produce a result", op)
	}
	stub.refEnd, stub.brefEnd = len(p.refs), len(p.brefs)
	return nil
}

// operand parses an operand reference into p.refs.
func (p *parser) operand() error {
	ref, err := p.parseOperandRef()
	if err != nil {
		return err
	}
	p.refs = append(p.refs, ref)
	return nil
}

// blockRef parses a block name into p.brefs.
func (p *parser) blockRef() error {
	bt := p.next()
	if bt.kind != tIdent {
		return p.errf(bt, "expected a block name, found %s", bt)
	}
	p.brefs = append(p.brefs, bt.text)
	return nil
}
