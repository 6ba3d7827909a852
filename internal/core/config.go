package core

import (
	"fmt"
	"strings"
)

// Rep selects the pointee representation (paper Table IV).
type Rep uint8

const (
	// EP uses only explicit pointees: the Ω node is materialized as a real
	// constraint variable with the constraints of Section III-B.
	EP Rep = iota
	// IP represents Ω implicitly via the six flag constraints and the
	// inference rules of Figure 7 (Section III-D).
	IP
)

func (r Rep) String() string {
	if r == EP {
		return "EP"
	}
	return "IP"
}

// SolverKind selects the constraint solver.
type SolverKind uint8

const (
	// Naive iterates over all constraints until a fixed point, as in
	// Andersen's thesis.
	Naive SolverKind = iota
	// Worklist runs the worklist algorithm of Section II-C / Algorithm 1.
	Worklist
	// Wave runs wave propagation (Pereira and Berlin): collapse all
	// cycles, then propagate in topological order, one wave per round of
	// newly discovered edges. An extension beyond the paper's Table IV;
	// not included in AllConfigs.
	Wave
)

func (s SolverKind) String() string {
	switch s {
	case Naive:
		return "Naive"
	case Wave:
		return "Wave"
	default:
		return "WL"
	}
}

// Order selects the worklist iteration order (paper Table IV).
type Order uint8

const (
	FIFO Order = iota // first in, first out
	LIFO              // last in, first out
	LRF               // least recently fired
	LRF2              // 2-phase least recently fired
	Topo              // periodic topological sweeps
)

func (o Order) String() string {
	switch o {
	case FIFO:
		return "FIFO"
	case LIFO:
		return "LIFO"
	case LRF:
		return "LRF"
	case LRF2:
		return "2LRF"
	case Topo:
		return "TOPO"
	default:
		return fmt.Sprintf("Order(%d)", uint8(o))
	}
}

// Config describes a full solver configuration: one path through the
// paper's Figure 8 flowchart.
type Config struct {
	Rep    Rep
	OVS    bool // offline variable substitution (Rountev and Chandra)
	Solver SolverKind
	Order  Order // meaningful only for the worklist solver

	// Worklist online techniques.
	PIP bool // prefer implicit pointees (Section IV); requires IP
	OCD bool // online cycle detection
	HCD bool // hybrid cycle detection
	LCD bool // lazy cycle detection
	DP  bool // difference propagation

	// PIPMask selects a subset of the four PIP additions for ablation
	// studies: bit i-1 enables addition i (Section IV's numbering).
	// Zero means "all rules" and is the normal setting.
	PIPMask uint8

	// Budget bounds the solve; a solve that exhausts it returns the
	// trivially sound Ω-degraded solution with Solution.Degraded set.
	// The zero value means no budget. The budget is part of the
	// configuration's canonical name (and therefore of engine cache
	// keys): budgeted and unbudgeted solves never share cached solutions.
	Budget Budget
}

// pipRule reports whether PIP addition n (1-4) is enabled.
func (c Config) pipRule(n int) bool {
	if !c.PIP {
		return false
	}
	if c.PIPMask == 0 {
		return true
	}
	return c.PIPMask&(1<<(n-1)) != 0
}

// Validate reports whether the configuration is a valid combination
// (paper Figure 8): the naive solver takes no order and no online
// techniques, OCD subsumes and therefore excludes HCD and LCD, and PIP
// requires the implicit pointee representation.
func (c Config) Validate() error {
	if c.Solver == Naive {
		if c.PIP || c.OCD || c.HCD || c.LCD || c.DP {
			return fmt.Errorf("naive solver cannot use online worklist techniques")
		}
		if c.Order != FIFO {
			return fmt.Errorf("naive solver has no iteration order")
		}
	}
	if c.Solver == Wave {
		if c.OCD || c.HCD || c.LCD {
			return fmt.Errorf("wave propagation collapses all cycles itself")
		}
		if c.DP {
			return fmt.Errorf("wave propagation always propagates full sets")
		}
		if c.Order != FIFO {
			return fmt.Errorf("wave propagation has no iteration order")
		}
	}
	if c.OCD && (c.HCD || c.LCD) {
		return fmt.Errorf("OCD detects all cycles; combining it with HCD/LCD is invalid")
	}
	if c.PIP && c.Rep != IP {
		return fmt.Errorf("PIP requires the implicit pointee representation")
	}
	if c.PIPMask != 0 && !c.PIP {
		return fmt.Errorf("PIPMask requires PIP")
	}
	if c.PIPMask > 0xF {
		return fmt.Errorf("PIPMask has only four rule bits")
	}
	if c.Solver == Worklist && c.Order > Topo {
		return fmt.Errorf("unknown iteration order %d", c.Order)
	}
	if err := c.Budget.Validate(); err != nil {
		return err
	}
	return nil
}

// String renders the configuration in the paper's notation, for example
// "IP+WL(FIFO)+LCD+DP" or "EP+OVS+WL(LRF)+OCD".
func (c Config) String() string {
	var parts []string
	parts = append(parts, c.Rep.String())
	if c.OVS {
		parts = append(parts, "OVS")
	}
	switch c.Solver {
	case Naive:
		parts = append(parts, "Naive")
	case Wave:
		parts = append(parts, "Wave")
	default:
		parts = append(parts, fmt.Sprintf("WL(%s)", c.Order))
	}
	if c.OCD {
		parts = append(parts, "OCD")
	}
	if c.HCD {
		parts = append(parts, "HCD")
	}
	if c.LCD {
		parts = append(parts, "LCD")
	}
	if c.DP {
		parts = append(parts, "DP")
	}
	if c.PIP {
		// A non-zero mask always renders its rule list (even the full
		// 0xF, which behaves like 0) so that ParseConfig(c.String())
		// reconstructs the exact Config value.
		if c.PIPMask != 0 {
			var rules []string
			for i := 1; i <= 4; i++ {
				if c.PIPMask&(1<<(i-1)) != 0 {
					rules = append(rules, fmt.Sprint(i))
				}
			}
			parts = append(parts, "PIP["+strings.Join(rules, ",")+"]")
		} else {
			parts = append(parts, "PIP")
		}
	}
	if !c.Budget.IsZero() {
		parts = append(parts, "B("+c.Budget.String()+")")
	}
	return strings.Join(parts, "+")
}

// ParseConfig parses the String notation back into a Config.
func ParseConfig(s string) (Config, error) {
	c := Config{}
	seenSolver := false
	for _, part := range strings.Split(s, "+") {
		switch {
		case part == "EP":
			c.Rep = EP
		case part == "IP":
			c.Rep = IP
		case part == "OVS":
			c.OVS = true
		case part == "Naive":
			c.Solver = Naive
			seenSolver = true
		case part == "Wave":
			c.Solver = Wave
			seenSolver = true
		case strings.HasPrefix(part, "WL(") && strings.HasSuffix(part, ")"):
			c.Solver = Worklist
			seenSolver = true
			switch ord := part[3 : len(part)-1]; ord {
			case "FIFO":
				c.Order = FIFO
			case "LIFO":
				c.Order = LIFO
			case "LRF":
				c.Order = LRF
			case "2LRF":
				c.Order = LRF2
			case "TOPO":
				c.Order = Topo
			default:
				return c, fmt.Errorf("unknown iteration order %q", ord)
			}
		case part == "PIP":
			c.PIP = true
		case strings.HasPrefix(part, "PIP[") && strings.HasSuffix(part, "]"):
			c.PIP = true
			for _, r := range strings.Split(part[4:len(part)-1], ",") {
				switch strings.TrimSpace(r) {
				case "1":
					c.PIPMask |= 1
				case "2":
					c.PIPMask |= 2
				case "3":
					c.PIPMask |= 4
				case "4":
					c.PIPMask |= 8
				default:
					return c, fmt.Errorf("bad PIP rule %q", r)
				}
			}
		case strings.HasPrefix(part, "B(") && strings.HasSuffix(part, ")"):
			b, err := ParseBudget(part[2 : len(part)-1])
			if err != nil {
				return c, err
			}
			c.Budget = b
		case part == "OCD":
			c.OCD = true
		case part == "HCD":
			c.HCD = true
		case part == "LCD":
			c.LCD = true
		case part == "DP":
			c.DP = true
		default:
			return c, fmt.Errorf("unknown configuration component %q", part)
		}
	}
	if !seenSolver {
		return c, fmt.Errorf("configuration %q names no solver", s)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// MustParseConfig is ParseConfig that panics on error; for tests and tables.
func MustParseConfig(s string) Config {
	c, err := ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// DefaultConfig returns the configuration the paper found fastest overall:
// IP+WL(FIFO)+PIP.
func DefaultConfig() Config {
	return Config{Rep: IP, Solver: Worklist, Order: FIFO, PIP: true}
}

// AllConfigs enumerates every valid configuration. The compatibility matrix
// implemented here (see Validate) yields 304 configurations; the paper
// reports 208 from a flowchart whose complete incompatibility list is only
// available as a figure, so our space is a superset that contains all five
// Table V configurations verbatim.
func AllConfigs() []Config {
	var out []Config
	for _, rep := range []Rep{EP, IP} {
		for _, ovs := range []bool{false, true} {
			// Naive solver.
			c := Config{Rep: rep, OVS: ovs, Solver: Naive}
			out = append(out, c)
			// Worklist solver.
			for _, order := range []Order{FIFO, LIFO, LRF, LRF2, Topo} {
				for _, cyc := range []struct{ ocd, hcd, lcd bool }{
					{false, false, false},
					{true, false, false},
					{false, true, false},
					{false, false, true},
					{false, true, true},
				} {
					for _, dp := range []bool{false, true} {
						pips := []bool{false}
						if rep == IP {
							pips = []bool{false, true}
						}
						for _, pip := range pips {
							c := Config{
								Rep: rep, OVS: ovs, Solver: Worklist, Order: order,
								OCD: cyc.ocd, HCD: cyc.hcd, LCD: cyc.lcd,
								DP: dp, PIP: pip,
							}
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	return out
}
