package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// layoutError reports the first list of m that is not capacity-limited:
// every instruction's Args and Blocks and every block's Instrs must have
// cap == len, so an append to one of them reallocates instead of writing
// into storage a neighbour shares.
func layoutError(m *Module) error {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if cap(b.Instrs) != len(b.Instrs) {
				return fmt.Errorf("@%s block %s: Instrs has len %d, cap %d", f.FName, b.BName, len(b.Instrs), cap(b.Instrs))
			}
			for _, in := range b.Instrs {
				if cap(in.Args) != len(in.Args) {
					return fmt.Errorf("@%s: %s: Args has len %d, cap %d", f.FName, in, len(in.Args), cap(in.Args))
				}
				if cap(in.Blocks) != len(in.Blocks) {
					return fmt.Errorf("@%s: %s: Blocks has len %d, cap %d", f.FName, in, len(in.Blocks), cap(in.Blocks))
				}
			}
		}
	}
	return nil
}

// layoutSnapshot records the text of every instruction of a module and
// the instruction list of every block.
type layoutSnapshot struct {
	text  map[*Instr]string
	lists map[*Block][]*Instr
}

func snapshotLayout(m *Module) layoutSnapshot {
	s := layoutSnapshot{text: map[*Instr]string{}, lists: map[*Block][]*Instr{}}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			s.lists[b] = slices.Clone(b.Instrs)
			for _, in := range b.Instrs {
				s.text[in] = in.String()
			}
		}
	}
	return s
}

// diff reports the first instruction that prints differently from the
// snapshot, or block whose list differs, skipping the instructions in
// changed and taking want's list for a block it names.
func (s layoutSnapshot) diff(m *Module, changed map[*Instr]bool, want map[*Block][]*Instr) error {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			list, ok := want[b]
			if !ok {
				list = s.lists[b]
			}
			if !slices.Equal(b.Instrs, list) {
				return fmt.Errorf("@%s block %s: instruction list changed", f.FName, b.BName)
			}
			for _, in := range b.Instrs {
				if got := in.String(); !changed[in] && got != s.text[in] {
					return fmt.Errorf("@%s: %q now prints %q", f.FName, s.text[in], got)
				}
			}
		}
	}
	return nil
}

// mutationError checks that the mutations transformation passes make stay
// inside the list they target. It appends to every instruction's Args and
// Blocks and to every block's Instrs (restoring each slice afterwards),
// runs ReplaceUses on one used value per function and back, and removes
// one instruction per function and appends to the shortened block. After
// each step every other instruction must print exactly as before.
func mutationError(m *Module) error {
	snap := snapshotLayout(m)
	marker := &ConstInt{Val: 987654321, T: I64}
	markerBlock := &Block{BName: "marker"}
	markerInstr := &Instr{Op: OpUnreachable}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				args, blocks := in.Args, in.Blocks
				in.Args = append(in.Args, marker)
				in.Blocks = append(in.Blocks, markerBlock)
				in.Args, in.Blocks = args, blocks
			}
			list := b.Instrs
			b.Instrs = append(b.Instrs, markerInstr)
			b.Instrs = list
		}
	}
	if err := snap.diff(m, nil, nil); err != nil {
		return fmt.Errorf("after appends: %w", err)
	}

	for _, f := range m.Funcs {
		old := firstUsed(f)
		if old == nil {
			continue
		}
		users := map[*Instr]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if slices.Contains(in.Args, Value(old)) {
					users[in] = true
				}
			}
		}
		ReplaceUses(f, old, marker)
		if err := snap.diff(m, users, nil); err != nil {
			return fmt.Errorf("after ReplaceUses of %%%s: %w", old.IName, err)
		}
		for in := range users {
			if !strings.Contains(in.String(), marker.Ident()) {
				return fmt.Errorf("ReplaceUses of %%%s missed %s", old.IName, in)
			}
		}
		ReplaceUses(f, marker, old)
		if err := snap.diff(m, nil, nil); err != nil {
			return fmt.Errorf("after undoing ReplaceUses of %%%s: %w", old.IName, err)
		}
	}

	want := map[*Block][]*Instr{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if len(b.Instrs) < 2 {
				continue
			}
			in := b.Instrs[0]
			if !RemoveInstr(in) {
				return fmt.Errorf("@%s: RemoveInstr(%s) found nothing", f.FName, in)
			}
			want[b] = slices.Clone(snap.lists[b][1:])
			// The freed slot is the block's own: appending reuses it.
			list := b.Instrs
			b.Instrs = append(b.Instrs, markerInstr)
			b.Instrs = list
			break
		}
	}
	if err := snap.diff(m, nil, want); err != nil {
		return fmt.Errorf("after RemoveInstr: %w", err)
	}
	return nil
}

// firstUsed returns the first instruction of f that another instruction
// of f uses, or nil.
func firstUsed(f *Function) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if d, ok := a.(*Instr); ok {
					return d
				}
			}
		}
	}
	return nil
}

// TestLayoutOfParseSeeds checks the layout and mutation isolation of every
// parse seed that parses.
func TestLayoutOfParseSeeds(t *testing.T) {
	for _, src := range parseSeeds {
		m, err := Parse(src)
		if err != nil {
			continue
		}
		if err := layoutError(m); err != nil {
			t.Errorf("%q: %v", src, err)
		}
		if err := mutationError(m); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// bodyModule spells a module of one function with blocks blocks, each
// holding n copies of a group of instructions with integer and float
// constants, multi-operand calls and a phi, and ending in a branch.
func bodyModule(blocks, n int) string {
	var b strings.Builder
	b.WriteString("declare func @ext(ptr, i64, f64) -> ptr\n")
	b.WriteString("func @f(%p: ptr, %x: i64) export {\n")
	for k := 0; k < blocks; k++ {
		fmt.Fprintf(&b, "b%d:\n", k)
		for i := 0; i < n; i++ {
			v := strconv.Itoa(k) + "_" + strconv.Itoa(i)
			fmt.Fprintf(&b, "  %%a%s = add i64, %%x, %d:i64\n", v, i)
			fmt.Fprintf(&b, "  %%g%s = gep i64, %%p, %%a%s, 3:i64\n", v, v)
			fmt.Fprintf(&b, "  store %%a%s, %%g%s\n", v, v)
			fmt.Fprintf(&b, "  %%c%s = call ptr, @ext(%%g%s, 7:i64, 2.5:f64)\n", v, v)
			if k > 0 {
				fmt.Fprintf(&b, "  %%h%s = phi ptr, [%%p, b%d]\n", v, k-1)
			}
		}
		if k+1 < blocks {
			fmt.Fprintf(&b, "  br b%d\n", k+1)
		} else {
			b.WriteString("  ret\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// TestParseAllocsPerBody pins that Parse allocates per function body,
// not per instruction: doubling every block body, constants included,
// may add only the growth of the parser's scratch slices and maps, a
// few allocations, against the hundreds of instructions it adds.
func TestParseAllocsPerBody(t *testing.T) {
	const blocks, n = 4, 16
	allocs := func(src string) (float64, int) {
		m := MustParse(src)
		if err := Verify(m); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { MustParse(src) }), m.NumInstrs()
	}
	base, baseInstrs := allocs(bodyModule(blocks, n))
	doubled, doubledInstrs := allocs(bodyModule(blocks, 2*n))
	added := doubledInstrs - baseInstrs
	if extra := doubled - base; extra > float64(added)/16 {
		t.Fatalf("doubling the bodies (%d more instructions) costs %v more allocations (%v, was %v)",
			added, extra, doubled, base)
	}
}
