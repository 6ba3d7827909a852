package opt

import (
	"github.com/pip-analysis/pip/internal/alias"
	"github.com/pip-analysis/pip/internal/callgraph"
	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/ir"
	"github.com/pip-analysis/pip/internal/modref"
)

// Context bundles the whole-module analyses for interprocedural
// optimization: instead of treating every call as clobbering all memory,
// call sites are resolved through the call graph and their effects through
// the mod/ref summaries.
type Context struct {
	An  alias.Analysis
	Gen *core.Gen
	Sol *core.Solution
	CG  *callgraph.Graph
	MR  *modref.Analysis

	edges map[*ir.Instr]*callgraph.Edge
}

// NewContext builds the full analysis context for a module.
func NewContext(m *ir.Module, cfg core.Config) (*Context, error) {
	gen := core.Generate(m)
	sol, err := core.Solve(gen.Problem, cfg, core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	cg := callgraph.Build(m, gen, sol)
	mr := modref.Compute(m, gen, sol, cg)
	ctx := &Context{
		An:    alias.Combined{alias.NewBasicAA(m), alias.NewAndersen(gen, sol)},
		Gen:   gen,
		Sol:   sol,
		CG:    cg,
		MR:    mr,
		edges: map[*ir.Instr]*callgraph.Edge{},
	}
	for _, node := range cg.Nodes {
		for _, e := range node.Calls {
			ctx.edges[e.Site] = e
		}
	}
	return ctx, nil
}

// ptrLocations resolves the abstract locations a pointer operand may
// reference, plus whether it may reference external/escaped memory.
func (ctx *Context) ptrLocations(ptr ir.Value) ([]core.VarID, bool) {
	for {
		in, ok := ptr.(*ir.Instr)
		if !ok || (in.Op != ir.OpGEP && in.Op != ir.OpBitcast) {
			break
		}
		ptr = in.Args[0]
	}
	switch v := ptr.(type) {
	case *ir.Global:
		return []core.VarID{ctx.Gen.MemOf[v]}, false
	case *ir.Instr:
		if v.Op == ir.OpAlloca {
			if mem, ok := ctx.Gen.MemOf[v]; ok {
				return []core.VarID{mem}, false
			}
		}
	}
	id, ok := ctx.Gen.VarOf[ptr]
	if !ok {
		return nil, true // unmodeled pointer: assume anything
	}
	var locs []core.VarID
	external := false
	for _, x := range ctx.Sol.PointsTo(id) {
		if x == core.OmegaPointee {
			external = true
			continue
		}
		locs = append(locs, x)
	}
	return locs, external
}

// callMayMod reports whether the call site may write memory overlapping
// the locations of ptr.
func (ctx *Context) callMayMod(site *ir.Instr, ptr ir.Value) bool {
	return ctx.callEffect(site, ptr, true)
}

// callMayRef reports whether the call site may read the locations of ptr.
func (ctx *Context) callMayRef(site *ir.Instr, ptr ir.Value) bool {
	return ctx.callEffect(site, ptr, false)
}

func (ctx *Context) callEffect(site *ir.Instr, ptr ir.Value, mod bool) bool {
	e := ctx.edges[site]
	if e == nil {
		return true
	}
	locs, external := ctx.ptrLocations(ptr)
	if e.External {
		// External code can only touch externally accessible memory
		// (Section III-A): module-private locations are safe even across
		// completely unknown calls.
		if external {
			return true
		}
		for _, loc := range locs {
			if ctx.Sol.Escaped(loc) {
				return true
			}
		}
		// Fall through: module-local targets of the same call site may
		// still touch the locations.
	}
	for _, target := range e.Targets {
		sum := ctx.MR.Summaries[target]
		if sum == nil {
			return true
		}
		for _, loc := range locs {
			if mod && sum.MayMod(ctx.Sol, loc) {
				return true
			}
			if !mod && sum.MayRef(ctx.Sol, loc) {
				return true
			}
		}
		if external && ((mod && sum.ModExternal) || (!mod && sum.RefExternal)) {
			return true
		}
	}
	return false
}

// RunInterproc applies both eliminations with call effects resolved
// through the mod/ref summaries.
func RunInterproc(m *ir.Module, ctx *Context) Stats {
	var s Stats
	for {
		l := eliminateRedundantLoadsCtx(m, ctx)
		d := eliminateDeadStoresCtx(m, ctx)
		s.LoadsEliminated += l
		s.StoresEliminated += d
		if l == 0 && d == 0 {
			return s
		}
	}
}

func eliminateRedundantLoadsCtx(m *ir.Module, ctx *Context) int {
	removed := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			var avail []*ir.Instr
			for ii := 0; ii < len(b.Instrs); ii++ {
				in := b.Instrs[ii]
				switch in.Op {
				case ir.OpLoad:
					matched := false
					for _, prev := range avail {
						if prev.Args[0] == in.Args[0] && ir.TypesEqual(prev.Ty, in.Ty) {
							ir.ReplaceUses(f, in, prev)
							ir.RemoveInstr(in)
							ii--
							removed++
							matched = true
							break
						}
					}
					if !matched {
						avail = append(avail, in)
					}
				case ir.OpStore, ir.OpMemcpy:
					kept := avail[:0]
					for _, prev := range avail {
						if !clobbers(ctx.An, in, prev.Args[0], ir.SizeOf(prev.Ty)) {
							kept = append(kept, prev)
						}
					}
					avail = kept
				case ir.OpCall:
					kept := avail[:0]
					for _, prev := range avail {
						if !ctx.callMayMod(in, prev.Args[0]) {
							kept = append(kept, prev)
						}
					}
					avail = kept
				}
			}
		}
	}
	return removed
}

func eliminateDeadStoresCtx(m *ir.Module, ctx *Context) int {
	removed := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for ii := 0; ii < len(b.Instrs); ii++ {
				st := b.Instrs[ii]
				if st.Op != ir.OpStore {
					continue
				}
				size := ir.SizeOf(st.Args[0].Type())
			scan:
				for j := ii + 1; j < len(b.Instrs); j++ {
					nxt := b.Instrs[j]
					switch nxt.Op {
					case ir.OpStore:
						if ir.SizeOf(nxt.Args[0].Type()) >= size &&
							ctx.An.Alias(nxt.Args[1], ir.SizeOf(nxt.Args[0].Type()), st.Args[1], size) == alias.MustAlias {
							ir.RemoveInstr(st)
							ii--
							removed++
							break scan
						}
						if clobbers(ctx.An, nxt, st.Args[1], size) {
							break scan
						}
					case ir.OpCall:
						if ctx.callMayRef(nxt, st.Args[1]) || ctx.callMayMod(nxt, st.Args[1]) {
							break scan
						}
					default:
						if reads(ctx.An, nxt, st.Args[1], size) || clobbers(ctx.An, nxt, st.Args[1], size) {
							break scan
						}
					}
				}
			}
		}
	}
	return removed
}
