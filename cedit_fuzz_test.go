package pip

import (
	"fmt"
	"strings"
	"testing"
)

// cEditHeader is the part of every FuzzCEdit file the fuzzer does not
// control: the declarations the function templates use.
const cEditHeader = `extern void *malloc(long n);
extern void *memcpy(void *d, void *s, long n);
extern void fz_sink(void *p);
extern int *fz_source(long k);

struct fz_node {
    int value;
    struct fz_node *next;
    int *data;
};

static int fz_i0;
static int fz_i1;
static int *fz_g0;
static int *fz_g1;
static struct fz_node *fz_head;
static int *(*fz_fp)(int *);

static int *fz_id(int *a) { return a; }
`

// cEditTemplates are the function bodies an edit script can place. %s is
// the function's name.
var cEditTemplates = []string{
	"int *%s(int *a) {\n    fz_g0 = a;\n    return fz_g1;\n}\n",
	"void %s(void) {\n    int x;\n    fz_g1 = &x;\n    fz_sink(fz_g0);\n}\n",
	"static void *%s(long k) {\n    void *p = malloc(k);\n    fz_sink(p);\n    return p;\n}\n",
	"int %s(int *a) {\n    long v = (long)a;\n    fz_g0 = (int*)v;\n    return 0;\n}\n",
	"void %s(struct fz_node *n) {\n    n->next = fz_head;\n    n->data = &fz_i0;\n    fz_head = n;\n}\n",
	"static int *%s(int **d, int **s) {\n    memcpy(d, s, 8);\n    return *d;\n}\n",
	"int *%s(long k) {\n    int *q = fz_source(k);\n    fz_fp = fz_id;\n    return fz_fp(q);\n}\n",
	"static struct fz_node *%s(int v) {\n    struct fz_node *n = (struct fz_node*)malloc(sizeof(struct fz_node));\n    n->value = v;\n    n->data = &fz_i1;\n    n->next = 0;\n    return n;\n}\n",
	"void %s(int *a, int *b) {\n    if (a != 0) {\n        fz_g1 = b;\n    } else {\n        fz_g0 = a;\n    }\n}\n",
}

// cEditFunc is one function of the file being edited.
type cEditFunc struct {
	name string
	tmpl int
}

func cEditSource(extra string, funcs []cEditFunc) string {
	var b strings.Builder
	b.WriteString(cEditHeader)
	b.WriteString(extra)
	b.WriteString("\n")
	for _, f := range funcs {
		fmt.Fprintf(&b, cEditTemplates[f.tmpl], f.name)
	}
	return b.String()
}

// cEditAnswers renders everything a client can ask of a result: the
// points-to set of every global and every parameter, the escaped set, and
// the dump.
func cEditAnswers(r *Result) string {
	var b strings.Builder
	var names []string
	for _, g := range r.Module.Globals {
		names = append(names, g.GName)
	}
	for _, f := range r.Module.Funcs {
		for _, p := range f.Params {
			names = append(names, f.FName+"."+p.PName)
		}
	}
	for _, name := range names {
		targets, ext, err := r.PointsTo(name)
		fmt.Fprintf(&b, "%s: %v %v %v\n", name, targets, ext, err)
	}
	fmt.Fprintf(&b, "escaped: %v\n", r.ExternallyAccessible())
	b.WriteString(r.Dump())
	return b.String()
}

// FuzzCEdit drives a pip.Session through an edit script on C functions
// and checks every generation against a from-scratch analysis of the same
// source. The script is read two bytes at a time: the first picks append
// (0), change (1) or delete (2) and the second a template or a function.
// An appended function is monotone, so under a resumable configuration
// it must resume from the previous generation's checkpoint.
func FuzzCEdit(f *testing.F) {
	f.Add("", []byte{0, 0, 0, 1, 0, 2, 0, 3})
	f.Add("", []byte{0, 4, 1, 0, 0, 5, 2, 1, 0, 6, 0, 7})
	f.Add("static int fz_x; int *fz_p = &fz_x;\n", []byte{0, 8, 0, 2, 2, 0, 0, 3, 1, 1, 0, 0})
	f.Add("int *fz_q;\nvoid fz_set(int *a) { fz_q = a; }\n", []byte{2, 0, 0, 1, 1, 0, 0, 5, 0, 5, 2, 3, 0, 4})
	f.Fuzz(func(t *testing.T, extra string, script []byte) {
		if len(extra) > 2048 || len(script) > 64 {
			t.Skip("input too large")
		}
		if strings.Contains(extra, "fz_fn") {
			// A declaration of a function an edit later defines makes
			// that append a change, not an addition.
			t.Skip("source names an edited function")
		}
		funcs := []cEditFunc{{"fz_fn0", 0}, {"fz_fn1", 4}}
		next := 2
		src := cEditSource(extra, funcs)
		configs := []Config{MustParseConfig("IP+WL(FIFO)"), DefaultConfig(), MustParseConfig("EP+OVS+WL(LRF)+OCD")}
		eng := NewEngine(BatchOptions{Workers: 1})
		sessions := make([]*Session, len(configs))
		for i, cfg := range configs {
			sessions[i] = eng.NewSession(cfg)
		}
		check := func(step int, edit string) {
			m, err := CompileC("edit.c", src)
			if err != nil {
				// The templates compile on their own; only the fuzzed
				// source can clash with them (e.g. by defining a name
				// an appended function takes).
				t.Skipf("step %d (%s) does not compile: %v", step, edit, err)
			}
			for i, cfg := range configs {
				got := sessions[i].Analyze(m)
				if got.Err != nil {
					t.Fatalf("step %d (%s) %v: %v", step, edit, cfg, got.Err)
				}
				ref, err := AnalyzeC("edit.c", src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := cEditAnswers(got.Result), cEditAnswers(ref); g != w {
					t.Fatalf("step %d (%s) %v: session answers differ from scratch\n--- session\n%s--- scratch\n%s", step, edit, cfg, g, w)
				}
				if i == 0 && strings.HasPrefix(edit, "append") && !got.Incremental.Resumed {
					t.Fatalf("step %d (%s) %v: append did not resume: %+v", step, edit, cfg, got.Incremental)
				}
			}
		}
		check(0, "base")
		for k := 0; k+1 < len(script); k += 2 {
			op, arg := script[k]%3, int(script[k+1])
			var edit string
			switch {
			case op == 0 || len(funcs) == 0:
				fn := cEditFunc{fmt.Sprintf("fz_fn%d", next), arg % len(cEditTemplates)}
				next++
				funcs = append(funcs, fn)
				edit = "append " + fn.name
			case op == 1:
				i := arg % len(funcs)
				funcs[i].tmpl = (funcs[i].tmpl + 1) % len(cEditTemplates)
				edit = "change " + funcs[i].name
			default:
				i := arg % len(funcs)
				edit = "delete " + funcs[i].name
				funcs = append(funcs[:i:i], funcs[i+1:]...)
			}
			src = cEditSource(extra, funcs)
			check(k/2+1, edit)
		}
	})
}
