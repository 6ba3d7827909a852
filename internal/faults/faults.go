// Package faults is a deterministic, seedable fault-injection registry.
//
// The analysis stack (core solver, batch engine, pipserve) registers named
// injection points at the places where production failures strike: job
// dispatch, cache insert/lookup, per-wave and per-cycle-collapse solver
// steps, request admission, and the HTTP handler. A chaos run arms a
// registry ("spec" grammar below) and every hook then decides — purely as
// a function of (seed, point, hit number) — whether to inject a panic, an
// error, extra latency, synthetic memory pressure, or a cache-corruption
// flip. Reruns with the same seed and the same per-point hit sequence make
// the same decisions, which is what lets the chaos suite pin invariants
// under -race and lets a failure be replayed from its seed.
//
// When no registry is armed the entire subsystem is a single atomic
// pointer load per hook (see BenchmarkDisabledInject): production binaries
// compile the hooks in and pay ~1ns for them.
//
// Spec grammar (semicolon-separated clauses):
//
//	seed=42; engine.dispatch=panic:0.02; serve.handler=latency:0.05:2ms; *=error:0.01
//
// Each clause is point=kind:rate[:arg]. point is one of the Point
// constants or "*" (applies to every registered point not named
// explicitly). kind is panic|error|latency|mem|flip. rate is a
// probability in [0,1], or "N" / an integer count with the form kind:@N,
// which fires exactly on the Nth hit (1-based) of that point. arg is the
// latency duration (latency) or allocation size like 4MB (mem).
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point names one injection site. Points are free-form strings, but the
// stack uses the constants below so specs, metrics, and docs agree.
type Point string

// The registered injection points, in stack order.
const (
	CoreSolve       Point = "core.solve"      // start of every from-scratch core.Solve, after validation
	CoreWave        Point = "core.wave"       // top of each wave in the Wave strategy
	CoreCollapse    Point = "core.collapse"   // entry of each top-level cycle collapse
	EngineDispatch  Point = "engine.dispatch" // worker picks up a job, before solve
	EngineCacheIns  Point = "engine.cache.insert"
	EngineCacheLook Point = "engine.cache.lookup"
	ServeAdmission  Point = "serve.admission" // request admitted, before queueing
	ServeHandler    Point = "serve.handler"   // solve/alias handler, before compile
	StoreSave       Point = "store.save"      // persistent store append, before write
	StoreLoad       Point = "store.load"      // persistent store read, before decode/verify
	RouterForward   Point = "router.forward"  // shard router, before each backend attempt
)

// Points lists every built-in injection point; the chaos suite uses it to
// arm "everything at ≥1%" without enumerating sites by hand.
func Points() []Point {
	return []Point{
		CoreSolve, CoreWave, CoreCollapse,
		EngineDispatch, EngineCacheIns, EngineCacheLook,
		ServeAdmission, ServeHandler,
		StoreSave, StoreLoad, RouterForward,
	}
}

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	KindNone    Kind = iota
	KindPanic        // panic(*Fault) at the hook
	KindError        // Inject returns *Fault
	KindLatency      // sleep Arg (duration), then proceed normally
	KindMem          // allocate and touch MemBytes, hold until next firing
	KindFlip         // cache-corruption flip: ShouldCorrupt reports true
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindMem:
		return "mem"
	case KindFlip:
		return "flip"
	}
	return "none"
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "panic":
		return KindPanic, nil
	case "error":
		return KindError, nil
	case "latency":
		return KindLatency, nil
	case "mem":
		return KindMem, nil
	case "flip":
		return KindFlip, nil
	}
	return KindNone, fmt.Errorf("unknown fault kind %q", s)
}

// Fault is the injected failure. It is both the error returned by Inject
// for KindError and the panic value for KindPanic, so recovery layers can
// identify synthetic faults with errors.As and classify them as transient.
type Fault struct {
	Point Point
	Kind  Kind
	Hit   uint64 // 1-based hit number at which the rule fired
}

func (f *Fault) Error() string {
	return fmt.Sprintf("injected %s fault at %s (hit %d)", f.Kind, f.Point, f.Hit)
}

// Rule arms one injection point.
type Rule struct {
	Kind Kind
	// Rate is the per-hit firing probability in [0,1]. Ignored when
	// OnHit is set.
	Rate float64
	// OnHit, when nonzero, fires exactly on that 1-based hit number
	// (deterministic single-shot triggers for targeted tests).
	OnHit uint64
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
	// MemBytes is the allocation size for KindMem.
	MemBytes int
}

// pointState is the armed per-point state: the rule plus an atomic hit
// counter. The counter is the only mutable field, so a Registry is safe
// for concurrent use once built.
type pointState struct {
	rule     Rule
	hits     atomic.Uint64
	injected atomic.Uint64
	// memHold keeps the most recent KindMem allocation reachable until
	// the next firing, simulating sustained pressure rather than an
	// instantly-collected spike.
	memHold atomic.Pointer[[]byte]
}

// Registry is an armed set of rules. Build one with New or ParseSpec,
// then install it process-wide with Arm (or use it directly in tests).
type Registry struct {
	seed     uint64
	points   map[Point]*pointState
	fallback *Rule // the "*" clause, lazily instantiated per new point
}

// New builds a registry with the given seed and per-point rules.
func New(seed uint64, rules map[Point]Rule) *Registry {
	r := &Registry{seed: seed, points: make(map[Point]*pointState, len(rules))}
	for p, rule := range rules {
		r.points[p] = &pointState{rule: rule}
	}
	return r
}

// Seed reports the seed the registry was built with.
func (r *Registry) Seed() uint64 { return r.seed }

// ParseSpec parses the chaos spec grammar documented at the top of the
// package. Unknown points are accepted (hooks are free-form strings);
// unknown kinds and malformed rates are errors.
func ParseSpec(spec string) (*Registry, error) {
	r := &Registry{points: map[Point]*pointState{}}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		eq := strings.IndexByte(clause, '=')
		if eq < 0 {
			return nil, fmt.Errorf("faults: clause %q is not point=value", clause)
		}
		key, val := strings.TrimSpace(clause[:eq]), strings.TrimSpace(clause[eq+1:])
		if key == "seed" {
			s, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			r.seed = s
			continue
		}
		rule, err := parseRule(val)
		if err != nil {
			return nil, fmt.Errorf("faults: point %s: %w", key, err)
		}
		if key == "*" {
			cp := rule
			r.fallback = &cp
			continue
		}
		r.points[Point(key)] = &pointState{rule: rule}
	}
	if r.fallback != nil {
		for _, p := range Points() {
			if _, explicit := r.points[p]; !explicit {
				r.points[p] = &pointState{rule: *r.fallback}
			}
		}
	}
	return r, nil
}

// parseRule parses kind:rate[:arg] or kind:@N[:arg].
func parseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return Rule{}, fmt.Errorf("rule %q needs kind:rate", s)
	}
	kind, err := parseKind(parts[0])
	if err != nil {
		return Rule{}, err
	}
	rule := Rule{Kind: kind}
	if strings.HasPrefix(parts[1], "@") {
		n, err := strconv.ParseUint(parts[1][1:], 10, 64)
		if err != nil || n == 0 {
			return Rule{}, fmt.Errorf("bad hit trigger %q (want @N, N ≥ 1)", parts[1])
		}
		rule.OnHit = n
	} else {
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || rate < 0 || rate > 1 || math.IsNaN(rate) {
			return Rule{}, fmt.Errorf("bad rate %q (want probability in [0,1] or @N)", parts[1])
		}
		rule.Rate = rate
	}
	if len(parts) > 2 {
		switch kind {
		case KindLatency:
			d, err := time.ParseDuration(parts[2])
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("bad latency %q", parts[2])
			}
			rule.Latency = d
		case KindMem:
			n, err := parseBytes(parts[2])
			if err != nil {
				return Rule{}, err
			}
			rule.MemBytes = n
		default:
			return Rule{}, fmt.Errorf("kind %s takes no argument", kind)
		}
	}
	if rule.Kind == KindLatency && rule.Latency == 0 {
		rule.Latency = time.Millisecond
	}
	if rule.Kind == KindMem && rule.MemBytes == 0 {
		rule.MemBytes = 8 << 20
	}
	return rule, nil
}

func parseBytes(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, s[:len(s)-2]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

// String renders the registry back in spec grammar (points sorted for
// stability). Round-tripping through ParseSpec yields the same rules.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", r.seed)}
	names := make([]string, 0, len(r.points))
	for p := range r.points {
		names = append(names, string(p))
	}
	sort.Strings(names)
	for _, name := range names {
		rule := r.points[Point(name)].rule
		clause := fmt.Sprintf("%s=%s", name, rule.Kind)
		if rule.OnHit > 0 {
			clause += fmt.Sprintf(":@%d", rule.OnHit)
		} else {
			clause += ":" + strconv.FormatFloat(rule.Rate, 'g', -1, 64)
		}
		switch rule.Kind {
		case KindLatency:
			clause += ":" + rule.Latency.String()
		case KindMem:
			clause += fmt.Sprintf(":%d", rule.MemBytes)
		}
		parts = append(parts, clause)
	}
	return strings.Join(parts, ";")
}

// splitmix64 is the statistical mixer behind per-hit decisions: cheap,
// stateless, and good enough that rate=p fires ≈p of hits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pointHash(p Point) uint64 {
	// FNV-1a; inlined to keep the armed hot path allocation-free.
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// fire decides whether hit number n (1-based) of point p fires. The
// decision depends only on (seed, point, n): concurrency changes which
// goroutine observes a given hit number, never how many faults a run of
// N hits injects.
func (ps *pointState) fire(seed uint64, p Point, n uint64) bool {
	if ps.rule.OnHit > 0 {
		return n == ps.rule.OnHit
	}
	if ps.rule.Rate <= 0 {
		return false
	}
	if ps.rule.Rate >= 1 {
		return true
	}
	v := splitmix64(seed ^ pointHash(p) ^ n)
	return float64(v>>11)/float64(1<<53) < ps.rule.Rate
}

// Inject is the hook the stack calls at an injection point. With no
// armed rule for p it returns nil. A firing KindError returns *Fault; a
// firing KindPanic panics with *Fault (call sites without an error path
// let an outer recover translate it); KindLatency sleeps then returns
// nil; KindMem allocates then returns nil; KindFlip returns nil here —
// cache sites ask ShouldCorrupt instead.
func (r *Registry) Inject(p Point) error {
	if r == nil {
		return nil
	}
	ps := r.points[p]
	if ps == nil || ps.rule.Kind == KindFlip {
		// Flip rules are evaluated only by ShouldCorrupt; consuming hit
		// numbers here would shift (and for @N triggers, swallow) them.
		return nil
	}
	n := ps.hits.Add(1)
	if !ps.fire(r.seed, p, n) {
		return nil
	}
	switch ps.rule.Kind {
	case KindPanic:
		ps.injected.Add(1)
		observe(p, KindPanic)
		panic(&Fault{Point: p, Kind: KindPanic, Hit: n})
	case KindError:
		ps.injected.Add(1)
		observe(p, KindError)
		return &Fault{Point: p, Kind: KindError, Hit: n}
	case KindLatency:
		ps.injected.Add(1)
		observe(p, KindLatency)
		time.Sleep(ps.rule.Latency)
	case KindMem:
		ps.injected.Add(1)
		observe(p, KindMem)
		buf := make([]byte, ps.rule.MemBytes)
		for i := 0; i < len(buf); i += 4096 {
			buf[i] = 1 // touch every page so the pressure is resident
		}
		ps.memHold.Store(&buf)
	}
	return nil
}

// ShouldCorrupt reports whether a KindFlip rule fires at p. Cache code
// calls it on the insert path to decide whether to corrupt the entry it
// is about to store (the chaos suite then asserts the corruption is
// caught on read, never served).
func (r *Registry) ShouldCorrupt(p Point) bool {
	if r == nil {
		return false
	}
	ps := r.points[p]
	if ps == nil || ps.rule.Kind != KindFlip {
		return false
	}
	n := ps.hits.Add(1)
	if !ps.fire(r.seed, p, n) {
		return false
	}
	ps.injected.Add(1)
	observe(p, KindFlip)
	return true
}

// Injected reports how many faults have fired at p so far.
func (r *Registry) Injected(p Point) uint64 {
	if r == nil {
		return 0
	}
	ps := r.points[p]
	if ps == nil {
		return 0
	}
	return ps.injected.Load()
}

// Hits reports how many times p has been evaluated so far.
func (r *Registry) Hits(p Point) uint64 {
	if r == nil {
		return 0
	}
	ps := r.points[p]
	if ps == nil {
		return 0
	}
	return ps.hits.Load()
}

// InjectedTotal sums fired faults across all points.
func (r *Registry) InjectedTotal() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for _, ps := range r.points {
		total += ps.injected.Load()
	}
	return total
}

// ---------------------------------------------------------------------------
// Process-wide arming. The hooks compiled into core/engine/serve read one
// atomic pointer; a nil registry (the default) short-circuits in ~1ns.

var active atomic.Pointer[Registry]

// Arm installs r as the process-wide registry. Passing nil disarms.
func Arm(r *Registry) { active.Store(r) }

// Disarm removes the process-wide registry.
func Disarm() { active.Store(nil) }

// Active returns the armed registry, or nil.
func Active() *Registry { return active.Load() }

// Inject evaluates the process-wide registry at p. This is the form the
// stack's hooks call: disabled cost is one atomic load and a nil check.
func Inject(p Point) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.Inject(p)
}

// ShouldCorrupt evaluates the process-wide registry's flip rule at p.
func ShouldCorrupt(p Point) bool {
	r := active.Load()
	if r == nil {
		return false
	}
	return r.ShouldCorrupt(p)
}

// ---------------------------------------------------------------------------
// Metrics bridge. obs (or serve) registers an observer to count fired
// faults as pip_faults_injected_total{point,kind}; the indirection keeps
// this package dependency-free.

var observer atomic.Pointer[func(Point, Kind)]

// SetObserver installs fn to be called once per fired fault. Passing nil
// removes it. The observer must be fast and must not call back into the
// registry.
func SetObserver(fn func(Point, Kind)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

func observe(p Point, k Kind) {
	if fn := observer.Load(); fn != nil {
		(*fn)(p, k)
	}
}

// IsFault reports whether err is (or wraps) an injected fault. The
// resilience layer treats these as transient and retry-eligible.
func IsFault(err error) bool {
	_, ok := AsFault(err)
	return ok
}

// AsFault unwraps err to the injected *Fault, if any.
func AsFault(err error) (*Fault, bool) {
	for err != nil {
		if f, ok := err.(*Fault); ok {
			return f, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}
