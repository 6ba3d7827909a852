package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The mini-C generator writes translation units for the edit-sessions
// workload: struct types with linked lists, malloc, function pointers,
// calls to extern functions and int<->pointer casts. A file is a fixed
// prelude (types, globals and helpers) plus independent function units.
// Units call only prelude functions and externs, so any unit can be
// appended, changed or deleted and the file still compiles.

// cFamilies is the number of struct families in a prelude.
const cFamilies = 3

// cQueries are the prelude globals every session queries; they hold
// pointers in every generated file.
var cQueries = []string{"head0", "head1", "head2", "gp0", "gp1", "op0"}

// cUnit is one generated function.
type cUnit struct {
	name   string
	fam    int
	header string
	stmts  []string
}

func (u *cUnit) write(b *strings.Builder) {
	b.WriteString(u.header)
	for _, s := range u.stmts {
		b.WriteString("    ")
		b.WriteString(s)
		b.WriteByte('\n')
	}
	b.WriteString("    return t;\n}\n\n")
}

// cProgram is a generated file being edited.
type cProgram struct {
	rng   *rand.Rand
	units []*cUnit
	next  int
}

func cPrelude() string {
	var b strings.Builder
	b.WriteString(`extern void *malloc(long n);
extern void free(void *p);
extern void ext_sink(void *p);
extern void *ext_source(long k);
extern int ext_hook(int (*cb)(int), int v);

static int gi0;
static int gi1;

`)
	for k := 0; k < cFamilies; k++ {
		fmt.Fprintf(&b, `struct node%[1]d {
    int value;
    struct node%[1]d *next;
    int *data;
};

static struct node%[1]d *head%[1]d;
static int *gp%[1]d;

static int inc%[1]d(int v) { return v + %[1]d + 1; }
static int dbl%[1]d(int v) { return v + v; }
static int (*op%[1]d)(int) = inc%[1]d;

static void push%[1]d(struct node%[1]d *n) {
    n->next = head%[1]d;
    head%[1]d = n;
}

static struct node%[1]d *mk%[1]d(int v) {
    struct node%[1]d *n = (struct node%[1]d*)malloc(sizeof(struct node%[1]d));
    n->value = v;
    n->next = NULL;
    n->data = &gi%[2]d;
    return n;
}

`, k, k%2)
	}
	return b.String()
}

// newCProgram generates a file of the given number of units.
func newCProgram(rng *rand.Rand, units int) *cProgram {
	p := &cProgram{rng: rng}
	for i := 0; i < units; i++ {
		p.units = append(p.units, p.newUnit())
	}
	return p
}

// Source renders the file.
func (p *cProgram) Source() string {
	var b strings.Builder
	b.WriteString(cPrelude())
	for _, u := range p.units {
		u.write(&b)
	}
	return b.String()
}

func (p *cProgram) newUnit() *cUnit {
	k := p.rng.Intn(cFamilies)
	u := &cUnit{name: fmt.Sprintf("u%d", p.next), fam: k}
	p.next++
	u.header = fmt.Sprintf(`int %s(int a, int *p) {
    struct node%[2]d *n = mk%[2]d(a);
    struct node%[2]d *cur;
    int *q = p;
    long h = 0;
    int t = a;
`, u.name, k)
	for i, n := 0, 6+p.rng.Intn(8); i < n; i++ {
		u.stmts = append(u.stmts, p.stmt(k))
	}
	return u
}

// stmt returns one statement over the unit's locals n, cur, q, h, t, a, p
// for struct family k.
func (p *cProgram) stmt(k int) string {
	o := p.rng.Intn(cFamilies) // another family, for the int* globals
	switch p.rng.Intn(20) {
	case 0:
		return fmt.Sprintf("push%d(n);", k)
	case 1:
		return "n->data = q;"
	case 2:
		return "q = n->data;"
	case 3:
		return fmt.Sprintf("gp%d = q;", o)
	case 4:
		return fmt.Sprintf("q = gp%d;", o)
	case 5:
		return "h = (long)q;"
	case 6:
		return "q = (int*)h;"
	case 7:
		return "ext_sink(n);"
	case 8:
		return "q = (int*)ext_source(t);"
	case 9:
		return fmt.Sprintf("t = t + op%d(a);", o)
	case 10:
		return fmt.Sprintf("op%d = dbl%d;", o, o)
	case 11:
		return fmt.Sprintf("t = t + ext_hook(inc%d, a);", o)
	case 12:
		return fmt.Sprintf("for (cur = head%d; cur != NULL; cur = cur->next) { t += cur->value; q = cur->data; }", k)
	case 13:
		return fmt.Sprintf("if (a > %d) { n = mk%d(t); } else { n->next = head%d; }", p.rng.Intn(10), k, k)
	case 14:
		return fmt.Sprintf("n = (struct node%d*)malloc(sizeof(struct node%d)); n->value = t; n->data = q;", k, k)
	case 15:
		return fmt.Sprintf("cur = head%d; if (cur != NULL) { head%d = cur->next; }", k, k)
	case 16:
		return "*q = t;"
	case 17:
		return "p = q;"
	case 18:
		return "t = t + *p;"
	default:
		return fmt.Sprintf("ext_sink(gp%d);", o)
	}
}

// edit applies one seeded edit: append a function, change a statement,
// or delete a function. It returns a short description.
func (p *cProgram) edit() string {
	switch x := p.rng.Intn(100); {
	case x < 35 || len(p.units) < 4:
		u := p.newUnit()
		p.units = append(p.units, u)
		return "append " + u.name
	case x < 75:
		u := p.units[p.rng.Intn(len(p.units))]
		i := p.rng.Intn(len(u.stmts))
		u.stmts[i] = p.stmt(u.fam)
		return fmt.Sprintf("change %s stmt %d", u.name, i)
	default:
		i := p.rng.Intn(len(p.units))
		name := p.units[i].name
		p.units = append(p.units[:i], p.units[i+1:]...)
		return "delete " + name
	}
}

// editScript is one session: a base file and the versions after each
// edit. Versions[0] is the base.
type editScript struct {
	Name     string
	Versions []string
	Edits    []string
}

// newEditScript generates session i of the given seed.
func newEditScript(seed int64, i, units, edits int) *editScript {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
	p := newCProgram(rng, units)
	s := &editScript{Name: fmt.Sprintf("s%d_%d.c", seed, i), Versions: []string{p.Source()}}
	for e := 0; e < edits; e++ {
		s.Edits = append(s.Edits, p.edit())
		s.Versions = append(s.Versions, p.Source())
	}
	return s
}
