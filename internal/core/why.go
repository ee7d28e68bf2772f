package core

import (
	"fmt"
	"strings"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
)

// Why is the per-tuple provenance probe behind `eh-query -why` (fact
// attribution): given a query and one of its output tuples, it re-runs
// the final rule with the output bindings pinned as selection constants
// to confirm the tuple is derivable (counting its derivations), and for
// each body atom lists the contributing rows — classified base vs
// overlay — that join under the pinned bindings. See docs/PROVENANCE.md.

// WhyRow is one contributing row of a body relation, in original
// identifier space when a dictionary is attached.
type WhyRow struct {
	Tuple []int64 `json:"tuple"`
	// Ann is the row's semiring annotation (annotated relations only).
	Ann float64 `json:"ann,omitempty"`
	// Source is "base" or "overlay" (see exec.Relation.Source).
	Source string `json:"source"`
}

// WhyAtom is one body atom's contribution listing.
type WhyAtom struct {
	Pred string `json:"pred"`
	// Pattern is the atom with the output bindings substituted, e.g.
	// "Edge(1,y)" for a probe of x=1 over Edge(x,y).
	Pattern string `json:"pattern"`
	// Rows are up to WhyMaxRows contributing rows; Total counts all of
	// them (Truncated marks a capped listing).
	Rows      []WhyRow `json:"rows,omitempty"`
	Total     int      `json:"total"`
	Truncated bool     `json:"truncated,omitempty"`
	// OverlayRows counts listed rows contributed by the insert overlay.
	OverlayRows int `json:"overlay_rows,omitempty"`
	// Err reports an atom whose listing could not be built (unknown
	// relation, constant outside the dictionary).
	Err string `json:"error,omitempty"`
}

// WhyRelation is one body relation's lineage at probe time.
type WhyRelation struct {
	Name       string `json:"name"`
	Epoch      uint64 `json:"epoch"`
	OverlayGen uint64 `json:"overlay_gen,omitempty"`
	WALSeq     uint64 `json:"wal_seq,omitempty"`
}

// WhyReport is the probe's result.
type WhyReport struct {
	// Tuple echoes the probed tuple spec.
	Tuple string `json:"tuple"`
	// Derivable reports whether the pinned body still joins; Derivations
	// counts the distinct ways it does.
	Derivable   bool `json:"derivable"`
	Derivations int  `json:"derivations"`
	// Err reports a failed derivability re-run (the atom listings may
	// still be present).
	Err       string        `json:"error,omitempty"`
	Atoms     []WhyAtom     `json:"atoms"`
	Relations []WhyRelation `json:"relations"`
}

// WhyMaxRows caps each atom's contributing-row listing.
const WhyMaxRows = 20

// Why probes why tuple (a spec like "T(1,2,3)" or "(1,2,3)", arity
// matching the final rule's head variables) is in the query's output.
// The final rule must be non-recursive.
func (e *Engine) Why(query, tuple string) (*WhyReport, error) {
	prog, err := datalog.Parse(query)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("core: why: empty program")
	}
	rule := prog.Rules[len(prog.Rules)-1]
	if rule.Head.Recursive {
		return nil, fmt.Errorf("core: why: recursive rules are not probeable")
	}
	consts, err := parseTupleSpec(tuple, rule.Head.Name, len(rule.Head.Vars))
	if err != nil {
		return nil, err
	}
	pinned := map[string]*datalog.Const{}
	for i, v := range rule.Head.Vars {
		pinned[v] = consts[i]
	}

	rep := &WhyReport{Tuple: tuple}

	// Derivability: re-run the program with the final rule's head
	// bindings pinned into its body and the head collapsed to a
	// derivation count.
	pinnedRule := &datalog.Rule{
		Head: datalog.Head{Name: "__why", AnnVar: "c", AnnType: "long"},
		Assign: &datalog.Assign{
			Var:  "c",
			Expr: datalog.AggExpr{Op: "COUNT", Arg: "*"},
		},
	}
	for _, a := range rule.Atoms {
		pinnedRule.Atoms = append(pinnedRule.Atoms, pinAtom(a, pinned))
	}
	var src strings.Builder
	for _, r := range prog.Rules[:len(prog.Rules)-1] {
		src.WriteString(r.String())
		src.WriteString("\n")
	}
	src.WriteString(pinnedRule.String())
	// Every part of the report reads one fork: the re-run, the listings,
	// and the epochs and coordinates of the relations section describe
	// one point in the update order, and the re-run's heads stay in it.
	fork := e.DB.Fork()
	if res, err := e.run(fork, src.String(), exec.RunParams{}); err != nil {
		rep.Err = err.Error()
	} else {
		rep.Derivations = int(res.Scalar())
		rep.Derivable = rep.Derivations > 0
	}

	// Per-atom contribution listings: walk each body relation's visible
	// view, keep rows consistent with the pinned bindings, and classify
	// each as base or overlay.
	dict := fork.Dict()
	for _, a := range rule.Atoms {
		pa := pinAtom(a, pinned)
		wa := WhyAtom{Pred: a.Pred, Pattern: atomString(pa)}
		rel, ok := fork.Relation(a.Pred)
		if !ok {
			wa.Err = fmt.Sprintf("unknown relation %s", a.Pred)
			rep.Atoms = append(rep.Atoms, wa)
			continue
		}
		// Encode the pattern's constants into code space; a constant
		// outside the dictionary matches nothing.
		codes := make([]uint32, len(pa.Args))
		fixed := make([]bool, len(pa.Args))
		match := true
		for i, t := range pa.Args {
			if t.Const == nil {
				continue
			}
			fixed[i] = true
			code, err := encodeWhyConst(dict, t.Const)
			if err != nil {
				match = false
				break
			}
			codes[i] = code
		}
		if !match {
			rep.Atoms = append(rep.Atoms, wa)
			continue
		}
		varPos := map[string]int{}
		rel.Canonical().ForEachTuple(func(tp []uint32, ann float64) {
			for i := range tp {
				if fixed[i] && tp[i] != codes[i] {
					return
				}
			}
			// Repeated variables must bind consistently (Edge(x,x)).
			clear(varPos)
			for i, t := range pa.Args {
				if t.Const != nil {
					continue
				}
				if j, seen := varPos[t.Var]; seen && tp[j] != tp[i] {
					return
				} else if !seen {
					varPos[t.Var] = i
				}
			}
			wa.Total++
			if len(wa.Rows) >= WhyMaxRows {
				wa.Truncated = true
				return
			}
			row := WhyRow{Tuple: make([]int64, len(tp)), Source: rel.Source(tp)}
			for i, v := range tp {
				if dict != nil {
					row.Tuple[i] = dict.Decode(v)
				} else {
					row.Tuple[i] = int64(v)
				}
			}
			if rel.Annotated {
				row.Ann = ann
			}
			if row.Source == "overlay" {
				wa.OverlayRows++
			}
			wa.Rows = append(wa.Rows, row)
		})
		rep.Atoms = append(rep.Atoms, wa)
	}

	lineage := Lineage(fork, prog.Relations())
	for _, name := range prog.Relations() {
		p := lineage[name]
		rep.Relations = append(rep.Relations, WhyRelation{
			Name:       name,
			Epoch:      fork.EpochOf(name),
			OverlayGen: p.OverlayGen,
			WALSeq:     p.WALSeq,
		})
	}
	return rep, nil
}

// parseTupleSpec parses "Name(1,2,3)", "(1,2,3)" or "1,2,3" into
// constants, validating the optional name against the head and the
// arity against the head's variable count.
func parseTupleSpec(spec, headName string, arity int) ([]*datalog.Const, error) {
	s := strings.TrimSpace(spec)
	if i := strings.IndexByte(s, '('); i >= 0 {
		name := strings.TrimSpace(s[:i])
		if name != "" && name != headName {
			return nil, fmt.Errorf("core: why: tuple names %s, query head is %s", name, headName)
		}
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("core: why: malformed tuple spec %q", spec)
		}
		s = s[i+1 : len(s)-1]
	}
	parts := strings.Split(s, ",")
	if len(parts) == 1 && strings.TrimSpace(parts[0]) == "" {
		parts = nil
	}
	if len(parts) != arity {
		return nil, fmt.Errorf("core: why: tuple has %d values, head has %d variables", len(parts), arity)
	}
	out := make([]*datalog.Const, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		c := &datalog.Const{}
		if strings.HasPrefix(p, `"`) && strings.HasSuffix(p, `"`) && len(p) >= 2 {
			c.IsString = true
			c.Str = p[1 : len(p)-1]
		} else if _, err := fmt.Sscanf(p, "%g", &c.Num); err != nil {
			return nil, fmt.Errorf("core: why: bad constant %q", p)
		}
		out[i] = c
	}
	return out, nil
}

// pinAtom substitutes pinned variables with their constants.
func pinAtom(a *datalog.Atom, pinned map[string]*datalog.Const) *datalog.Atom {
	out := &datalog.Atom{Pred: a.Pred, Args: make([]datalog.Term, len(a.Args))}
	for i, t := range a.Args {
		if t.Var != "" {
			if c, ok := pinned[t.Var]; ok {
				out.Args[i] = datalog.Term{Const: c}
				continue
			}
		}
		out.Args[i] = t
	}
	return out
}

// atomString renders an atom the way Rule.String does.
func atomString(a *datalog.Atom) string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteString("(")
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(",")
		}
		switch {
		case t.Var != "":
			sb.WriteString(t.Var)
		case t.Const.IsString:
			fmt.Fprintf(&sb, "%q", t.Const.Str)
		default:
			fmt.Fprintf(&sb, "%g", t.Const.Num)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// encodeWhyConst mirrors the planner's constant encoding (original
// identifiers through the dictionary, raw codes without one).
func encodeWhyConst(dict *graph.Dictionary, c *datalog.Const) (uint32, error) {
	var orig int64
	if c.IsString {
		if _, err := fmt.Sscanf(c.Str, "%d", &orig); err != nil {
			return 0, fmt.Errorf("core: why: non-numeric constant %q", c.Str)
		}
	} else {
		orig = int64(c.Num)
	}
	if dict != nil {
		code, ok := dict.Lookup(orig)
		if !ok {
			return 0, fmt.Errorf("core: why: constant %d not in dictionary", orig)
		}
		return code, nil
	}
	return uint32(orig), nil
}
