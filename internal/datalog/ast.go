// Package datalog implements EmptyHeaded's query language (§2.3): datalog
// rules with conjunctive bodies, semiring aggregation annotations, selection
// constants, and limited Kleene-star recursion. The concrete grammar covers
// every query in Tables 1 and 12 of the paper.
package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// Program is a sequence of rules executed in order; rules sharing a head
// name where a later rule is starred form a recursive group.
type Program struct {
	Rules []*Rule
}

// Rule is one datalog rule.
type Rule struct {
	Head Head
	// Body atoms, in source order.
	Atoms []*Atom
	// Assign is the annotation expression after the body's ';'
	// (e.g. y = 0.15+0.85*<<SUM(z)>>), nil when the head is un-annotated.
	Assign *Assign
}

// Head is the rule head.
type Head struct {
	Name string
	// Vars are the group-by (key) variables.
	Vars []string
	// AnnVar/AnnType describe the annotation alias after ';'
	// (e.g. "w" and "long" in CountTriangle(;w:long)); empty if none.
	AnnVar  string
	AnnType string
	// Recursive marks a Kleene-star head (R*(..)).
	Recursive bool
	// Iterations is the [i=k] bound; 0 means run to fixpoint.
	Iterations int
}

// MaxFixpointIters caps recursion: the largest [i=k] the parser accepts,
// and the round count at which an unbounded fixpoint is an error.
const MaxFixpointIters = 100000

// Atom is one body atom; Args align positionally with the relation.
type Atom struct {
	Pred string
	Args []Term
}

// Term is a variable or a constant.
type Term struct {
	Var   string // non-empty for variables
	Const *Const // non-nil for constants
}

// Const is a literal: a quoted string or a number.
type Const struct {
	IsString bool
	Str      string
	Num      float64
}

// Assign is the annotation assignment `var = expr`.
type Assign struct {
	Var  string
	Expr Expr
}

// Expr is an annotation expression AST node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// NumExpr is a numeric literal.
type NumExpr struct{ Value float64 }

// RefExpr references a zero-arity (scalar) relation by name, e.g. N in
// PageRank's 1/N.
type RefExpr struct{ Name string }

// AggExpr is a semiring aggregate <<OP(arg)>>; Arg is "*" for COUNT(*).
type AggExpr struct {
	Op  string
	Arg string
}

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

func (NumExpr) exprNode() {}
func (RefExpr) exprNode() {}
func (AggExpr) exprNode() {}
func (BinExpr) exprNode() {}

func (e NumExpr) String() string { return fmt.Sprintf("%g", e.Value) }
func (e RefExpr) String() string { return e.Name }
func (e AggExpr) String() string { return fmt.Sprintf("<<%s(%s)>>", e.Op, e.Arg) }
func (e BinExpr) String() string {
	return fmt.Sprintf("(%s%c%s)", e.L, e.Op, e.R)
}

// FindAgg returns the single aggregate term inside e, or nil. Multiple
// aggregates in one expression are rejected at parse time.
func FindAgg(e Expr) *AggExpr {
	switch x := e.(type) {
	case AggExpr:
		return &x
	case *AggExpr:
		return x
	case BinExpr:
		if a := FindAgg(x.L); a != nil {
			return a
		}
		return FindAgg(x.R)
	case *BinExpr:
		if a := FindAgg(x.L); a != nil {
			return a
		}
		return FindAgg(x.R)
	}
	return nil
}

// Relations returns the sorted distinct relation names the program
// touches: every head (a head may shadow — or, before its rule runs,
// read — a stored relation of the same name) and everything its rules
// read (see Rule.Reads). This is the conservative read set the query
// service keys result-cache entries on: a cached result stays valid
// exactly while none of these relations (nor the dictionary) change.
func (p *Program) Relations() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range p.Rules {
		for _, name := range append(r.Reads(), r.Head.Name) {
			if name != "" && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Reads returns the relation names r reads, duplicates included: every
// body atom and every scalar relation referenced inside the annotation
// expression (e.g. N in PageRank's 1/N) — not the head, which r writes.
func (r *Rule) Reads() []string {
	var out []string
	for _, a := range r.Atoms {
		out = append(out, a.Pred)
	}
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case RefExpr:
			out = append(out, x.Name)
		case *RefExpr:
			out = append(out, x.Name)
		case BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *BinExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		}
	}
	if r.Assign != nil {
		walkExpr(r.Assign.Expr)
	}
	return out
}

// Vars returns the distinct body variables of r in first-appearance order.
func (r *Rule) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range r.Atoms {
		for _, t := range a.Args {
			if t.Var != "" && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	return out
}

// String reconstructs rule source (normalized), used in tests and Explain.
func (r *Rule) String() string {
	var sb strings.Builder
	sb.WriteString(r.Head.Name)
	if r.Head.Recursive {
		sb.WriteString("*")
	}
	sb.WriteString("(")
	sb.WriteString(strings.Join(r.Head.Vars, ","))
	if r.Head.AnnVar != "" {
		sb.WriteString(";")
		sb.WriteString(r.Head.AnnVar)
		if r.Head.AnnType != "" {
			sb.WriteString(":")
			sb.WriteString(r.Head.AnnType)
		}
	}
	sb.WriteString(")")
	if r.Head.Iterations > 0 {
		fmt.Fprintf(&sb, "[i=%d]", r.Head.Iterations)
	}
	sb.WriteString(" :- ")
	for i, a := range r.Atoms {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(a.Pred)
		sb.WriteString("(")
		for j, t := range a.Args {
			if j > 0 {
				sb.WriteString(",")
			}
			if t.Var != "" {
				sb.WriteString(t.Var)
			} else if t.Const.IsString {
				fmt.Fprintf(&sb, "%q", t.Const.Str)
			} else {
				fmt.Fprintf(&sb, "%g", t.Const.Num)
			}
		}
		sb.WriteString(")")
	}
	if r.Assign != nil {
		fmt.Fprintf(&sb, "; %s=%s", r.Assign.Var, r.Assign.Expr)
	}
	sb.WriteString(".")
	return sb.String()
}
