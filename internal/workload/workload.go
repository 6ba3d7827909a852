package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pip-analysis/pip/internal/ir"
)

// Options controls corpus generation.
type Options struct {
	// Seed makes the corpus deterministic; the same seed always yields
	// byte-identical modules.
	Seed int64
	// Scale multiplies per-suite file counts (1.0 = the paper's 3659
	// files). Each suite keeps at least one file.
	Scale float64
	// SizeScale multiplies per-file instruction targets (1.0 = the
	// paper's sizes).
	SizeScale float64
	// MaxInstrs, when positive, caps every file's instruction target
	// after scaling. Useful for fast test corpora.
	MaxInstrs int
	// NoPathological replaces the escape-heavy outlier files with
	// ordinary ones, for experiments isolating the common case.
	NoPathological bool
}

// DefaultOptions is a laptop-friendly configuration: 10% of the files at
// 25% size.
func DefaultOptions() Options {
	return Options{Seed: 1, Scale: 0.1, SizeScale: 0.25}
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.SizeScale <= 0 {
		o.SizeScale = 1
	}
	return o
}

// File is one generated translation unit.
type File struct {
	Suite        string
	Name         string
	Module       *ir.Module
	Pathological bool
}

// GenerateCorpus generates every suite.
func GenerateCorpus(opts Options) []File {
	var out []File
	for _, spec := range Suites {
		out = append(out, GenerateSuite(spec, opts)...)
	}
	return out
}

// GenerateSuite generates one suite's files.
func GenerateSuite(spec SuiteSpec, opts Options) []File {
	opts = opts.normalized()
	nFiles := int(float64(spec.Files)*opts.Scale + 0.5)
	if nFiles < 1 {
		nFiles = 1
	}
	nPath := spec.Pathological
	if opts.NoPathological {
		nPath = 0
	}
	if nPath > nFiles/2 {
		nPath = (nFiles + 1) / 2
	}
	mu, sigma := fitLogNormal(float64(spec.MeanInstrs), float64(spec.MaxInstrs), nFiles)
	var out []File
	for i := 0; i < nFiles; i++ {
		seed := opts.Seed*1_000_003 + int64(hashString(spec.Name))*7919 + int64(i)
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("%s/file%04d.c", spec.Name, i)
		if i < nPath {
			target := int(float64(spec.MaxInstrs) * opts.SizeScale)
			if target < 400 {
				target = 400
			}
			if opts.MaxInstrs > 0 && target > opts.MaxInstrs {
				target = opts.MaxInstrs
			}
			m := generatePathological(name, rng, target)
			out = append(out, File{Suite: spec.Name, Name: name, Module: m, Pathological: true})
			continue
		}
		target := int(math.Exp(mu+sigma*rng.NormFloat64()) * opts.SizeScale)
		if target < 30 {
			target = 30
		}
		maxT := int(float64(spec.MaxInstrs) * opts.SizeScale)
		if target > maxT && maxT > 30 {
			target = maxT
		}
		if opts.MaxInstrs > 0 && target > opts.MaxInstrs {
			target = opts.MaxInstrs
		}
		m := generateFile(name, spec, rng, target)
		out = append(out, File{Suite: spec.Name, Name: name, Module: m})
	}
	return out
}

// fitLogNormal finds (mu, sigma) such that a log-normal sample of size n
// has approximately the given mean and maximum.
func fitLogNormal(mean, max float64, n int) (mu, sigma float64) {
	if n < 2 {
		return math.Log(mean), 0.25
	}
	// Expected maximum of n standard normals ≈ quantile at 1 - 1/(n+1).
	q := 1 - 1/float64(n+1)
	z := math.Sqrt2 * math.Erfinv(2*q-1)
	r := math.Log(max / mean)
	disc := z*z - 2*r
	if disc < 0 {
		sigma = z
	} else {
		sigma = z - math.Sqrt(disc)
	}
	if sigma < 0.3 {
		sigma = 0.3
	}
	if sigma > 2.5 {
		sigma = 2.5
	}
	mu = math.Log(mean) - sigma*sigma/2
	return mu, sigma
}

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// fileGen holds per-file generation state.
type fileGen struct {
	rng     *rand.Rand
	spec    SuiteSpec
	m       *ir.Module
	b       *ir.Builder
	target  int
	emitted int // instruction budget consumed

	structs  []*ir.StructType
	globals  []*ir.Global // pointer-holding globals
	intGlobs []*ir.Global
	funcs    []*ir.Function // defined so far (callable)
	externs  []*ir.Function
	hasHeap  bool

	// per-function pools
	ptrs    []ir.Value
	scalars []ir.Value
}

func generateFile(name string, spec SuiteSpec, rng *rand.Rand, target int) *ir.Module {
	g := &fileGen{rng: rng, spec: spec, target: target}
	g.m = ir.NewModule(name)
	g.b = ir.NewBuilder(g.m)
	g.declareModuleLevel()
	// Fill function bodies until the instruction budget is spent.
	avgBody := 40 + rng.Intn(40)
	idx := 0
	for g.emitted < g.target {
		left := g.target - g.emitted
		body := avgBody
		if body > left {
			body = left
		}
		g.genFunction(fmt.Sprintf("fn%d", idx), body)
		idx++
	}
	return g.m
}

func (g *fileGen) linkage(rate float64) ir.Linkage {
	if g.rng.Float64() < rate {
		return ir.Exported
	}
	return ir.Internal
}

func (g *fileGen) declareModuleLevel() {
	rng := g.rng
	// A couple of struct types.
	s1 := &ir.StructType{Name: "node", Fields: []ir.Type{ir.Ptr, ir.I64}}
	s2 := &ir.StructType{Name: "ctx", Fields: []ir.Type{ir.Ptr, ir.Ptr, ir.I32}}
	_ = g.m.AddStruct(s1)
	_ = g.m.AddStruct(s2)
	g.structs = []*ir.StructType{s1, s2}

	// Globals: pointer cells, scalar cells, arrays, structs.
	nGlobals := g.target/80 + 2
	for i := 0; i < nGlobals; i++ {
		lk := g.linkage(g.spec.ExportRate)
		switch rng.Intn(5) {
		case 0, 1:
			gl := g.b.GlobalVar(fmt.Sprintf("gp%d", i), ir.Ptr, nil, lk)
			g.globals = append(g.globals, gl)
		case 2:
			gl := g.b.GlobalVar(fmt.Sprintf("gi%d", i), ir.I64, nil, lk)
			g.intGlobs = append(g.intGlobs, gl)
		case 3:
			gl := g.b.GlobalVar(fmt.Sprintf("ga%d", i), &ir.ArrayType{Elem: ir.Ptr, Len: 4 + rng.Intn(12)}, nil, lk)
			g.globals = append(g.globals, gl)
		default:
			gl := g.b.GlobalVar(fmt.Sprintf("gs%d", i), g.structs[rng.Intn(len(g.structs))], nil, lk)
			g.globals = append(g.globals, gl)
		}
	}
	// Pointer globals reference each other (cross-references create the
	// copy cycles that cycle detection targets).
	for i, gl := range g.globals {
		if ir.TypesEqual(gl.Elem, ir.Ptr) && rng.Intn(2) == 0 && len(g.globals) > 1 {
			gl.Init = g.globals[(i+1+rng.Intn(len(g.globals)-1))%len(g.globals)]
		}
	}

	// Imported functions.
	nExterns := 2 + rng.Intn(5)
	for i := 0; i < nExterns; i++ {
		nArgs := rng.Intn(3)
		sig := &ir.FuncType{Ret: ir.Ptr}
		for a := 0; a < nArgs; a++ {
			if rng.Intn(2) == 0 {
				sig.Params = append(sig.Params, ir.Ptr)
			} else {
				sig.Params = append(sig.Params, ir.I64)
			}
		}
		g.externs = append(g.externs, g.b.DeclareFunc(fmt.Sprintf("ext%d", i), sig))
	}
	if g.rng.Float64() < g.spec.HeapRate+0.3 {
		g.hasHeap = true
		g.externs = append(g.externs,
			g.b.DeclareFunc("malloc", &ir.FuncType{Ret: ir.Ptr, Params: []ir.Type{ir.I64}}),
			g.b.DeclareFunc("free", &ir.FuncType{Ret: ir.Void, Params: []ir.Type{ir.Ptr}}))
	}
}

// anyPtr returns a random pointer value from the pool, creating one (the
// address of a global) if the pool is empty.
func (g *fileGen) anyPtr() ir.Value {
	if len(g.ptrs) == 0 {
		if len(g.globals) > 0 {
			return g.globals[g.rng.Intn(len(g.globals))]
		}
		a := g.b.Alloca(ir.Ptr)
		g.emitted++
		g.ptrs = append(g.ptrs, a)
		return a
	}
	return g.ptrs[g.rng.Intn(len(g.ptrs))]
}

func (g *fileGen) anyScalar() ir.Value {
	if len(g.scalars) == 0 || g.rng.Intn(4) == 0 {
		return g.b.Int(int64(g.rng.Intn(1000)), ir.I64)
	}
	return g.scalars[g.rng.Intn(len(g.scalars))]
}

// genFunction emits one function with roughly budget instructions.
func (g *fileGen) genFunction(name string, budget int) {
	rng := g.rng
	nPtrArgs := rng.Intn(3)
	sig := &ir.FuncType{Ret: ir.Ptr}
	for i := 0; i < nPtrArgs; i++ {
		sig.Params = append(sig.Params, ir.Ptr)
	}
	if rng.Intn(2) == 0 {
		sig.Params = append(sig.Params, ir.I64)
	}
	f := g.b.NewFunc(name, sig, nil, g.linkage(g.spec.ExportRate))
	g.funcs = append(g.funcs, f)
	g.ptrs = g.ptrs[:0]
	g.scalars = g.scalars[:0]
	for _, p := range f.Params {
		if ir.TypesEqual(p.T, ir.Ptr) {
			g.ptrs = append(g.ptrs, p)
		} else {
			g.scalars = append(g.scalars, p)
		}
	}

	used := 0
	emit := func(n int) { used += n; g.emitted += n }
	for used < budget {
		r := rng.Float64()
		switch {
		case r < 0.32: // scalar arithmetic: the bulk of real code
			v := g.b.Bin(ir.BinKinds[rng.Intn(len(ir.BinKinds))], ir.I64, g.anyScalar(), g.anyScalar())
			g.scalars = append(g.scalars, v)
			emit(1)
		case r < 0.40: // comparison + diamond (adds realistic CFG weight)
			c := g.b.ICmp(ir.ICmpPreds[rng.Intn(len(ir.ICmpPreds))], g.anyScalar(), g.anyScalar())
			then := g.b.NewBlock(fmt.Sprintf("t%d", used))
			els := g.b.NewBlock(fmt.Sprintf("e%d", used))
			join := g.b.NewBlock(fmt.Sprintf("j%d", used))
			g.b.CondBr(c, then, els)
			g.b.SetBlock(then)
			v1 := g.anyPtr()
			g.b.Br(join)
			g.b.SetBlock(els)
			v2 := g.anyPtr()
			g.b.Br(join)
			g.b.SetBlock(join)
			p := g.b.Phi(ir.Ptr, []ir.Value{v1, v2}, []*ir.Block{then, els})
			g.ptrs = append(g.ptrs, p)
			emit(5)
		case r < 0.50: // alloca
			var t ir.Type = ir.Ptr
			switch rng.Intn(4) {
			case 0:
				t = ir.I64
			case 1:
				t = g.structs[rng.Intn(len(g.structs))]
			}
			a := g.b.Alloca(t)
			g.ptrs = append(g.ptrs, a)
			emit(1)
		case r < 0.62: // load
			if rng.Intn(3) == 0 { // scalar load
				v := g.b.Load(ir.I64, g.anyPtr())
				g.scalars = append(g.scalars, v)
			} else {
				v := g.b.Load(ir.Ptr, g.anyPtr())
				g.ptrs = append(g.ptrs, v)
			}
			emit(1)
		case r < 0.74: // store
			if rng.Intn(3) == 0 {
				g.b.Store(g.anyScalar(), g.anyPtr())
			} else {
				g.b.Store(g.anyPtr(), g.anyPtr())
			}
			emit(1)
		case r < 0.80: // gep
			v := g.b.GEP(g.structs[rng.Intn(len(g.structs))], g.anyPtr(),
				g.b.Int(0, ir.I64), g.b.Int(int64(rng.Intn(2)), ir.I64))
			g.ptrs = append(g.ptrs, v)
			emit(1)
		case r < 0.80+g.spec.SmuggleRate: // pointer-integer round trips
			i := g.b.PtrToInt(g.anyPtr())
			q := g.b.IntToPtr(i)
			g.ptrs = append(g.ptrs, q)
			g.scalars = append(g.scalars, i)
			emit(2)
		case r < 0.82+g.spec.SmuggleRate && len(g.funcs) > 0 && len(g.globals) > 0:
			// Publish a function address through a global (the source of
			// realistic indirect-call targets).
			fn := g.funcs[rng.Intn(len(g.funcs))]
			g.b.Store(fn, g.globals[rng.Intn(len(g.globals))])
			emit(1)
		default: // calls
			g.genCall()
			emit(2)
		}
	}
	g.b.Ret(g.anyPtr())
	g.emitted++
}

func (g *fileGen) genCall() {
	rng := g.rng
	r := rng.Float64()
	switch {
	case g.hasHeap && r < g.spec.HeapRate*0.5:
		h := g.b.Call(ir.Ptr, g.m.Func("malloc"), g.b.Int(int64(8+rng.Intn(64)), ir.I64))
		g.ptrs = append(g.ptrs, h)
	case r < g.spec.ExternRate && len(g.externs) > 0:
		callee := g.externs[rng.Intn(len(g.externs))]
		args := make([]ir.Value, len(callee.Sig.Params))
		for i, pt := range callee.Sig.Params {
			if ir.TypesEqual(pt, ir.Ptr) {
				args[i] = g.anyPtr()
			} else {
				args[i] = g.anyScalar()
			}
		}
		v := g.b.Call(callee.Sig.Ret, callee, args...)
		if ir.TypesEqual(callee.Sig.Ret, ir.Ptr) {
			g.ptrs = append(g.ptrs, v)
		}
	case r < g.spec.ExternRate+g.spec.FnPtrRate:
		// Indirect call: load a function pointer back out of a global
		// half the time (resolvable), otherwise call through an
		// arbitrary pool pointer (usually unknown origin).
		callee := g.anyPtr()
		if rng.Intn(2) == 0 && len(g.globals) > 0 {
			callee = g.b.Load(ir.Ptr, g.globals[rng.Intn(len(g.globals))])
		}
		v := g.b.Call(ir.Ptr, callee, g.anyPtr())
		g.ptrs = append(g.ptrs, v)
	case len(g.funcs) > 0:
		callee := g.funcs[rng.Intn(len(g.funcs))]
		args := make([]ir.Value, len(callee.Sig.Params))
		for i, pt := range callee.Sig.Params {
			if ir.TypesEqual(pt, ir.Ptr) {
				args[i] = g.anyPtr()
			} else {
				args[i] = g.anyScalar()
			}
		}
		v := g.b.Call(ir.Ptr, callee, args...)
		g.ptrs = append(g.ptrs, v)
	default:
		v := g.b.Bin("add", ir.I64, g.anyScalar(), g.anyScalar())
		g.scalars = append(g.scalars, v)
	}
}

// generatePathological builds an escape-heavy module modeled on the
// paper's base/gdevp14.c outlier: a large set of exported pointer globals
// densely copied through one another. Every pointer both escapes and has
// unknown-origin pointees, so without PIP the solver materializes a
// quadratic number of doubled-up explicit pointees.
func generatePathological(name string, rng *rand.Rand, target int) *ir.Module {
	m := ir.NewModule(name)
	b := ir.NewBuilder(m)
	n := target / 6
	if n < 16 {
		n = 16
	}
	globals := make([]*ir.Global, n)
	for i := range globals {
		globals[i] = b.GlobalVar(fmt.Sprintf("tab%d", i), ir.Ptr, nil, ir.Exported)
	}
	for i, gl := range globals {
		gl.Init = globals[(i+1)%n]
	}
	ext := b.DeclareFunc("callback", &ir.FuncType{Ret: ir.Ptr, Params: []ir.Type{ir.Ptr}})

	nFuncs := 1 + n/64
	per := (target - n) / nFuncs
	for fi := 0; fi < nFuncs; fi++ {
		b.NewFunc(fmt.Sprintf("route%d", fi), &ir.FuncType{Ret: ir.Ptr, Params: []ir.Type{ir.Ptr}}, nil, ir.Exported)
		var last ir.Value = b.Load(ir.Ptr, globals[rng.Intn(n)])
		for i := 0; i < per/2; i++ {
			src := globals[rng.Intn(n)]
			dst := globals[rng.Intn(n)]
			v := b.Load(ir.Ptr, src)
			b.Store(v, dst)
			if i%16 == 0 {
				last = b.Call(ir.Ptr, ext, v)
			} else {
				last = v
			}
		}
		b.Ret(last)
	}
	return m
}
