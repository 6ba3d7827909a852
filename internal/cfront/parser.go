package cfront

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser for mini-C.
type parser struct {
	toks []token
	pos  int

	structs  map[string]*StructDef
	typedefs map[string]CType
	file     *File
	anonSeq  int
	// lastParams holds the parameter names of the most recently parsed
	// declarator with a function suffix (consumed by function definitions).
	lastParams []string
	// enumConsts maps enumerator names to their values.
	enumConsts map[string]int64
}

// ParseC parses a mini-C translation unit into an AST.
func ParseC(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:     toks,
		structs:  map[string]*StructDef{},
		typedefs: map[string]CType{},
		file:     &File{},
	}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.file, nil
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) peek2() token  { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind == tPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tPunct || t.text != s {
		return p.errf(t, "expected %q, found %s", s, t)
	}
	return nil
}

func (p *parser) acceptKeyword(s string) bool {
	if t := p.peek(); t.kind == tKeyword && t.text == s {
		p.pos++
		return true
	}
	return false
}

// isTypeStart reports whether the current token begins a type.
func (p *parser) isTypeStart() bool {
	t := p.peek()
	switch t.kind {
	case tKeyword:
		switch t.text {
		case "void", "char", "short", "int", "long", "float", "double",
			"unsigned", "signed", "struct", "union", "enum", "const",
			"static", "extern":
			return true
		}
		return false
	case tIdent:
		_, isTypedef := p.typedefs[t.text]
		return isTypedef
	}
	return false
}

func (p *parser) parseFile() error {
	for p.peek().kind != tEOF {
		if p.acceptKeyword("typedef") {
			base, err := p.parseSpecifiers(nil)
			if err != nil {
				return err
			}
			name, t, err := p.parseDeclarator(base, false)
			if err != nil {
				return err
			}
			if name == "" {
				return p.errf(p.peek(), "typedef needs a name")
			}
			p.typedefs[name] = t
			if err := p.expectPunct(";"); err != nil {
				return err
			}
			continue
		}
		storage := DefaultStorage
		base, err := p.parseSpecifiers(&storage)
		if err != nil {
			return err
		}
		// Bare "struct S { ... };" declaration.
		if p.acceptPunct(";") {
			continue
		}
		if err := p.parseTopDeclarators(base, storage); err != nil {
			return err
		}
	}
	return nil
}

// parseSpecifiers parses storage-class and type specifiers.
func (p *parser) parseSpecifiers(storage *Storage) (CType, error) {
	var base CType
	sawSign := false
	longCount := 0
	for {
		t := p.peek()
		if t.kind == tKeyword {
			switch t.text {
			case "static":
				p.pos++
				if storage != nil {
					*storage = StaticStorage
				}
				continue
			case "extern":
				p.pos++
				if storage != nil {
					*storage = ExternStorage
				}
				continue
			case "const":
				p.pos++
				continue
			case "unsigned", "signed":
				p.pos++
				sawSign = true
				continue
			case "void":
				p.pos++
				base = cVoid
				continue
			case "char":
				p.pos++
				base = cChar
				continue
			case "short":
				p.pos++
				base = &Prim{CShort}
				continue
			case "int":
				p.pos++
				if base == nil {
					base = cInt
				}
				continue
			case "long":
				p.pos++
				longCount++
				base = cLong
				continue
			case "float":
				p.pos++
				base = &Prim{CFloat}
				continue
			case "double":
				p.pos++
				base = cDouble
				continue
			case "struct":
				p.pos++
				st, err := p.parseStruct(false)
				if err != nil {
					return nil, err
				}
				base = st
				continue
			case "union":
				p.pos++
				st, err := p.parseStruct(true)
				if err != nil {
					return nil, err
				}
				base = st
				continue
			case "enum":
				p.pos++
				if err := p.parseEnum(); err != nil {
					return nil, err
				}
				base = cInt
				continue
			}
		}
		if t.kind == tIdent && base == nil && !sawSign {
			if td, ok := p.typedefs[t.text]; ok {
				p.pos++
				base = td
				continue
			}
		}
		break
	}
	if base == nil {
		if sawSign || longCount > 0 {
			base = cInt
		} else {
			return nil, p.errf(p.peek(), "expected a type, found %s", p.peek())
		}
	}
	return base, nil
}

// parseStruct parses "struct Name", "struct Name { ... }", or
// "struct { ... }" (and the union equivalents when isUnion is set).
func (p *parser) parseStruct(isUnion bool) (*StructRef, error) {
	name := ""
	if t := p.peek(); t.kind == tIdent {
		name = t.text
		p.pos++
	}
	if !p.acceptPunct("{") {
		if name == "" {
			return nil, p.errf(p.peek(), "anonymous struct requires a body")
		}
		def := p.structs[name]
		if def == nil {
			// Forward reference: create an empty def to be filled later.
			def = &StructDef{Name: name, Union: isUnion}
			p.structs[name] = def
			p.file.Structs = append(p.file.Structs, def)
		}
		return &StructRef{Name: name, Def: def}, nil
	}
	if name == "" {
		p.anonSeq++
		name = fmt.Sprintf("anon%d", p.anonSeq)
	}
	def := p.structs[name]
	if def == nil {
		def = &StructDef{Name: name, Union: isUnion}
		p.structs[name] = def
		p.file.Structs = append(p.file.Structs, def)
	}
	def.Union = isUnion
	if len(def.Fields) > 0 {
		return nil, p.errf(p.peek(), "struct %s redefined", name)
	}
	for !p.acceptPunct("}") {
		base, err := p.parseSpecifiers(nil)
		if err != nil {
			return nil, err
		}
		for {
			fname, ft, err := p.parseDeclarator(base, false)
			if err != nil {
				return nil, err
			}
			if fname == "" {
				return nil, p.errf(p.peek(), "struct field needs a name")
			}
			def.Fields = append(def.Fields, Field{Name: fname, Type: ft})
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	return &StructRef{Name: name, Def: def}, nil
}

// parseEnum parses "enum [Name] [{ A [= n], B, ... }]", registering the
// enumerators as integer constants.
func (p *parser) parseEnum() error {
	if t := p.peek(); t.kind == tIdent {
		p.pos++ // enum tag names are accepted and ignored
	}
	if !p.acceptPunct("{") {
		return nil
	}
	next := int64(0)
	first := true
	for !p.acceptPunct("}") {
		if !first {
			if err := p.expectPunct(","); err != nil {
				return err
			}
			if p.acceptPunct("}") { // trailing comma
				return nil
			}
		}
		first = false
		t := p.next()
		if t.kind != tIdent {
			return p.errf(t, "expected an enumerator name, found %s", t)
		}
		if p.acceptPunct("=") {
			vt := p.next()
			neg := false
			if vt.kind == tPunct && vt.text == "-" {
				neg = true
				vt = p.next()
			}
			if vt.kind != tInt {
				return p.errf(vt, "enumerator value must be an integer")
			}
			v, err := strconv.ParseInt(vt.text, 0, 64)
			if err != nil {
				return p.errf(vt, "bad enumerator value %q", vt.text)
			}
			if neg {
				v = -v
			}
			next = v
		}
		if p.enumConsts == nil {
			p.enumConsts = map[string]int64{}
		}
		p.enumConsts[t.text] = next
		next++
	}
	return nil
}

// declParts is the parsed shape of a C declarator.
type declParts struct {
	stars    int
	name     string
	inner    *declParts
	suffixes []declSuffix
}

type declSuffix struct {
	isArray bool
	arrLen  int
	params  []CType
	names   []string
	varArg  bool
}

// parseDeclarator parses a (possibly abstract) declarator over base and
// returns the declared name (may be empty when abstract) and full type.
// Parameter names, if any, are attached via lastParams.
func (p *parser) parseDeclarator(base CType, abstract bool) (string, CType, error) {
	parts, err := p.parseDeclParts(abstract)
	if err != nil {
		return "", nil, err
	}
	name, t := applyDeclParts(parts, base)
	p.lastParams = collectParamNames(parts)
	return name, t, nil
}

func collectParamNames(d *declParts) []string {
	for _, s := range d.suffixes {
		if !s.isArray {
			return s.names
		}
	}
	if d.inner != nil {
		return collectParamNames(d.inner)
	}
	return nil
}

func applyDeclParts(d *declParts, base CType) (string, CType) {
	t := base
	for i := 0; i < d.stars; i++ {
		t = &Ptr{Elem: t}
	}
	for i := len(d.suffixes) - 1; i >= 0; i-- {
		s := d.suffixes[i]
		if s.isArray {
			t = &Arr{Elem: t, Len: s.arrLen}
		} else {
			t = &FuncCT{Ret: t, Params: s.params, Variadic: s.varArg}
		}
	}
	if d.inner != nil {
		return applyDeclParts(d.inner, t)
	}
	return d.name, t
}

func (p *parser) parseDeclParts(abstract bool) (*declParts, error) {
	d := &declParts{}
	for p.acceptPunct("*") {
		d.stars++
		for p.acceptKeyword("const") {
		}
	}
	t := p.peek()
	switch {
	case t.kind == tIdent:
		if _, isTD := p.typedefs[t.text]; !isTD {
			d.name = t.text
			p.pos++
		}
	case t.kind == tPunct && t.text == "(":
		// Nested declarator iff followed by '*' or '(' (otherwise it is a
		// function-parameter suffix of an abstract declarator).
		nt := p.peek2()
		if nt.kind == tPunct && (nt.text == "*" || nt.text == "(") {
			p.pos++
			inner, err := p.parseDeclParts(abstract)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			d.inner = inner
		} else if nt.kind == tIdent {
			if _, isTD := p.typedefs[nt.text]; !isTD {
				// "(name..." is a nested declarator too.
				p.pos++
				inner, err := p.parseDeclParts(abstract)
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				d.inner = inner
			}
		}
	}
	for {
		switch {
		case p.acceptPunct("["):
			ln := 0
			if t := p.peek(); t.kind == tInt {
				v, err := strconv.ParseInt(t.text, 0, strconv.IntSize)
				if err != nil {
					return nil, p.errf(t, "bad array length %q", t.text)
				}
				ln = int(v)
				p.pos++
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			d.suffixes = append(d.suffixes, declSuffix{isArray: true, arrLen: ln})
		case p.acceptPunct("("):
			sfx := declSuffix{}
			if p.acceptPunct(")") {
				d.suffixes = append(d.suffixes, sfx)
				continue
			}
			// "(void)" means no parameters.
			if p.peek().kind == tKeyword && p.peek().text == "void" &&
				p.peek2().kind == tPunct && p.peek2().text == ")" {
				p.pos += 2
				d.suffixes = append(d.suffixes, sfx)
				continue
			}
			for {
				if p.acceptPunct(".") {
					// "..." lexes as three dots.
					if err := p.expectPunct("."); err != nil {
						return nil, err
					}
					if err := p.expectPunct("."); err != nil {
						return nil, err
					}
					sfx.varArg = true
					break
				}
				pbase, err := p.parseSpecifiers(nil)
				if err != nil {
					return nil, err
				}
				pname, pt, err := p.parseDeclarator(pbase, true)
				if err != nil {
					return nil, err
				}
				sfx.params = append(sfx.params, pt)
				sfx.names = append(sfx.names, pname)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			d.suffixes = append(d.suffixes, sfx)
		default:
			return d, nil
		}
	}
}

// parseTopDeclarators parses the declarator list of a top-level
// declaration, handling function definitions.
func (p *parser) parseTopDeclarators(base CType, storage Storage) error {
	first := true
	for {
		name, t, err := p.parseDeclarator(base, false)
		if err != nil {
			return err
		}
		if name == "" {
			return p.errf(p.peek(), "declaration needs a name")
		}
		if ft, isFunc := t.(*FuncCT); isFunc {
			// Capture parameter names now: parsing the body (or the next
			// declarator) reuses the same scratch slot.
			params := p.lastParamsFor(name)
			if first && p.peek().kind == tPunct && p.peek().text == "{" {
				// Function definition.
				line := p.peek().line
				body, err := p.parseBlock()
				if err != nil {
					return err
				}
				p.file.Funcs = append(p.file.Funcs, &FuncDef{
					Name: name, Type: ft, Params: params,
					Body: body, Storage: storage, Line: line,
				})
				return nil
			}
			// Prototype.
			p.file.Funcs = append(p.file.Funcs, &FuncDef{
				Name: name, Type: ft, Params: params,
				Storage: ExternStorage, Line: p.peek().line,
			})
		} else {
			var init Expr
			if p.acceptPunct("=") {
				init, err = p.parseInitializer()
				if err != nil {
					return err
				}
			}
			p.file.Globals = append(p.file.Globals, &VarDecl{
				Name: name, Type: t, Init: init, Storage: storage,
				Line: p.peek().line,
			})
		}
		first = false
		if p.acceptPunct(",") {
			continue
		}
		return p.expectPunct(";")
	}
}

func (p *parser) lastParamsFor(string) []string { return p.lastParams }
