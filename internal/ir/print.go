package ir

import (
	"fmt"
	"io"
	"strings"
)

// Print renders the module in MIR textual syntax. The output round-trips
// through Parse.
func Print(m *Module) string {
	var b strings.Builder
	PrintTo(&b, m)
	return b.String()
}

// PrintTo writes exactly the text Print returns to w, so a caller that
// only consumes the text (a hash, a file) need not build it. It issues
// many small writes and ignores their errors: give it a bufio.Writer,
// which keeps the first error and reports it from Flush.
func PrintTo(w io.Writer, m *Module) {
	fmt.Fprintf(w, "module %q\n", m.Name)
	for _, s := range m.Structs {
		fields := make([]string, len(s.Fields))
		for i, f := range s.Fields {
			fields[i] = f.String()
		}
		fmt.Fprintf(w, "struct %%%s = { %s }\n", s.Name, strings.Join(fields, ", "))
	}
	for _, g := range m.Globals {
		if g.Linkage == Declared {
			fmt.Fprintf(w, "declare global @%s : %s\n", g.GName, g.Elem)
			continue
		}
		fmt.Fprintf(w, "global @%s : %s", g.GName, g.Elem)
		if g.Init != nil {
			fmt.Fprintf(w, " = %s", g.Init.Ident())
		}
		fmt.Fprintf(w, " %s\n", g.Linkage)
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			fmt.Fprintf(w, "declare func @%s%s\n", f.FName, sigString(f.Sig, nil))
			continue
		}
		fmt.Fprintf(w, "\nfunc @%s%s %s {\n", f.FName, sigString(f.Sig, f.Params), f.Linkage)
		for _, blk := range f.Blocks {
			fmt.Fprintf(w, "%s:\n", blk.BName)
			for _, in := range blk.Instrs {
				io.WriteString(w, "  ")
				in.print(w)
				io.WriteString(w, "\n")
			}
		}
		io.WriteString(w, "}\n")
	}
}

func sigString(sig *FuncType, params []*Param) string {
	var parts []string
	for i, pt := range sig.Params {
		if params != nil {
			parts = append(parts, fmt.Sprintf("%%%s: %s", params[i].PName, pt))
		} else {
			parts = append(parts, pt.String())
		}
	}
	if sig.Variadic {
		parts = append(parts, "...")
	}
	s := "(" + strings.Join(parts, ", ") + ")"
	if _, isVoid := sig.Ret.(VoidType); !isVoid {
		s += " -> " + sig.Ret.String()
	}
	return s
}
