package ir

import (
	"io"
	"strconv"
	"strings"
)

// Print renders the module in MIR textual syntax. The output round-trips
// through Parse.
func Print(m *Module) string {
	var b strings.Builder
	PrintTo(&b, m)
	return b.String()
}

// printChunk is the size of PrintTo's buffer, and so roughly of each
// write it makes.
const printChunk = 4 << 10

// PrintTo writes exactly the text Print returns to w, so a caller that
// only consumes the text (a hash, a file) need not build it. It renders
// into one buffer of a few KB and hands it to w each time it fills, so w
// needs no buffering of its own. It returns the first write error and
// writes nothing after it.
func PrintTo(w io.Writer, m *Module) error {
	p := printer{w: w, buf: make([]byte, 0, printChunk)}
	p.buf = strconv.AppendQuote(append(p.buf, "module "...), m.Name)
	p.endLine()
	for _, s := range m.Structs {
		p.buf = append(append(p.buf, "struct %"...), s.Name...)
		p.buf = append(appendTypes(append(p.buf, " = { "...), s.Fields, nil, false), " }"...)
		p.endLine()
	}
	for _, g := range m.Globals {
		if g.Linkage == Declared {
			p.buf = append(append(p.buf, "declare global @"...), g.GName...)
			p.buf = appendType(append(p.buf, " : "...), g.Elem)
			p.endLine()
			continue
		}
		p.buf = append(append(p.buf, "global @"...), g.GName...)
		p.buf = appendType(append(p.buf, " : "...), g.Elem)
		if g.Init != nil {
			p.buf = appendIdent(append(p.buf, " = "...), g.Init)
		}
		p.buf = append(append(p.buf, ' '), g.Linkage.String()...)
		p.endLine()
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			p.buf = append(append(p.buf, "declare func @"...), f.FName...)
			p.buf = appendSig(p.buf, f.Sig, nil)
			p.endLine()
			continue
		}
		p.buf = append(append(p.buf, "\nfunc @"...), f.FName...)
		p.buf = appendSig(p.buf, f.Sig, f.Params)
		p.buf = append(append(append(p.buf, ' '), f.Linkage.String()...), " {"...)
		p.endLine()
		for _, blk := range f.Blocks {
			p.buf = append(append(p.buf, blk.BName...), ':')
			p.endLine()
			for _, in := range blk.Instrs {
				p.buf = in.appendTo(append(p.buf, "  "...))
				p.endLine()
			}
		}
		p.buf = append(p.buf, '}')
		p.endLine()
	}
	p.flush()
	return p.err
}

// printer accumulates PrintTo's text and hands it to w a chunk at a time.
type printer struct {
	w   io.Writer
	buf []byte
	err error
}

// endLine ends the current line and flushes once a chunk is full.
func (p *printer) endLine() {
	p.buf = append(p.buf, '\n')
	if len(p.buf) >= printChunk {
		p.flush()
	}
}

func (p *printer) flush() {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// appendSig appends a function signature: the parameter list, named when
// params is non-nil, and the result type unless it is void.
func appendSig(b []byte, sig *FuncType, params []*Param) []byte {
	b = append(appendTypes(append(b, '('), sig.Params, params, sig.Variadic), ')')
	if _, isVoid := sig.Ret.(VoidType); !isVoid {
		b = appendType(append(b, " -> "...), sig.Ret)
	}
	return b
}

// appendType appends the MIR spelling of t; Type.String returns the
// same text.
func appendType(b []byte, t Type) []byte {
	switch t := t.(type) {
	case VoidType:
		return append(b, "void"...)
	case IntType:
		return strconv.AppendInt(append(b, 'i'), int64(t.Bits), 10)
	case FloatType:
		return strconv.AppendInt(append(b, 'f'), int64(t.Bits), 10)
	case PointerType:
		return append(b, "ptr"...)
	case *ArrayType:
		b = strconv.AppendInt(append(b, '['), int64(t.Len), 10)
		return append(appendType(append(b, " x "...), t.Elem), ']')
	case *StructType:
		if t.Name != "" {
			return append(append(b, '%'), t.Name...)
		}
		return append(appendTypes(append(b, "{ "...), t.Fields, nil, false), " }"...)
	case *FuncType:
		b = append(appendTypes(append(b, "func("...), t.Params, nil, t.Variadic), ") -> "...)
		return appendType(b, t.Ret)
	case nil:
		// Only an unverified module lacks a type (Verify prints the
		// offending instruction); keep the spelling fmt's %s gave it.
		return append(b, "%!s(<nil>)"...)
	}
	return append(b, t.String()...)
}

// appendTypes appends ts separated by ", ", each as "%name: type" when
// params is non-nil, then "..." if variadic.
func appendTypes(b []byte, ts []Type, params []*Param, variadic bool) []byte {
	for i, t := range ts {
		if i > 0 {
			b = append(b, ", "...)
		}
		if params != nil {
			b = append(append(append(b, '%'), params[i].PName...), ": "...)
		}
		b = appendType(b, t)
	}
	if variadic {
		if len(ts) > 0 {
			b = append(b, ", "...)
		}
		b = append(b, "..."...)
	}
	return b
}

// appendIdent appends the operand spelling of v; v.Ident returns the
// same text.
func appendIdent(b []byte, v Value) []byte {
	switch v := v.(type) {
	case *Instr:
		return append(append(b, '%'), v.IName...)
	case *Param:
		return append(append(b, '%'), v.PName...)
	case *Global:
		return append(append(b, '@'), v.GName...)
	case *Function:
		return append(append(b, '@'), v.FName...)
	case *ConstInt:
		return appendType(append(strconv.AppendInt(b, v.Val, 10), ':'), v.T)
	case *ConstFloat:
		// 'g' with the shortest precision is fmt's %g, "+Inf" included.
		return appendType(append(strconv.AppendFloat(b, v.Val, 'g', -1, 64), ':'), v.T)
	case *ConstNull:
		return append(b, "null"...)
	case *ConstUndef:
		return appendType(append(b, "undef:"...), v.T)
	case *ConstZero:
		return appendType(append(b, "zero:"...), v.T)
	case *ConstAggregate:
		b = append(b, "{ "...)
		for i, e := range v.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendIdent(b, e)
		}
		return append(b, " }"...)
	}
	return append(b, v.Ident()...)
}
