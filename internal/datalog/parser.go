package datalog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses a program: one or more rules, each terminated by '.'.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	prog := &Program{}
	for {
		if p.peek().kind == tokEOF {
			break
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("datalog: empty program")
	}
	return prog, nil
}

// ParseRule parses exactly one rule.
func ParseRule(src string) (*Rule, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 {
		return nil, fmt.Errorf("datalog: expected one rule, got %d", len(prog.Rules))
	}
	return prog.Rules[0], nil
}

// --- lexer ------------------------------------------------------------

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokSemi
	tokColon
	tokDot
	tokStar
	tokTurnstile // :-
	tokAggOpen   // <<
	tokAggClose  // >>
	tokEq
	tokPlus
	tokMinus
	tokSlash
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func newLexer(src string) *lexer {
	l := &lexer{src: src}
	l.run()
	return l
}

func (l *lexer) emit(kind tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) run() {
	s := l.src
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case c == ':' && i+1 < len(s) && s[i+1] == '-':
			l.emit(tokTurnstile, ":-", i)
			i += 2
		case c == '<' && i+1 < len(s) && s[i+1] == '<':
			l.emit(tokAggOpen, "<<", i)
			i += 2
		case c == '>' && i+1 < len(s) && s[i+1] == '>':
			l.emit(tokAggClose, ">>", i)
			i += 2
		case c == '(':
			l.emit(tokLParen, "(", i)
			i++
		case c == ')':
			l.emit(tokRParen, ")", i)
			i++
		case c == '[':
			l.emit(tokLBracket, "[", i)
			i++
		case c == ']':
			l.emit(tokRBracket, "]", i)
			i++
		case c == ',':
			l.emit(tokComma, ",", i)
			i++
		case c == ';':
			l.emit(tokSemi, ";", i)
			i++
		case c == ':':
			l.emit(tokColon, ":", i)
			i++
		case c == '.' && (i+1 >= len(s) || !isDigit(s[i+1])):
			l.emit(tokDot, ".", i)
			i++
		case c == '*':
			l.emit(tokStar, "*", i)
			i++
		case c == '=':
			l.emit(tokEq, "=", i)
			i++
		case c == '+':
			l.emit(tokPlus, "+", i)
			i++
		case c == '-':
			l.emit(tokMinus, "-", i)
			i++
		case c == '/':
			l.emit(tokSlash, "/", i)
			i++
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			for j < len(s) && s[j] != quote {
				j++
			}
			if j >= len(s) {
				l.emit(tokEOF, "", i) // unterminated; parser reports
				return
			}
			l.emit(tokString, s[i+1:j], i)
			i = j + 1
		case isDigit(c) || (c == '.' && i+1 < len(s) && isDigit(s[i+1])):
			j := i
			for j < len(s) && (isDigit(s[j]) || s[j] == '.' ||
				(j > i && (s[j] == 'e' || s[j] == 'E')) ||
				(j > i && (s[j] == '+' || s[j] == '-') && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				// Stop a trailing '.' that terminates the rule: "5." → 5, DOT.
				if s[j] == '.' && (j+1 >= len(s) || !isDigit(s[j+1])) {
					break
				}
				j++
			}
			l.emit(tokNumber, s[i:j], i)
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < len(s) && isIdentPart(rune(s[j])) {
				j++
			}
			l.emit(tokIdent, s[i:j], i)
			i = j
		default:
			l.emit(tokEOF, string(c), i) // invalid char; parser reports
			return
		}
	}
	l.emit(tokEOF, "", len(s))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}
func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '\''
}

// --- parser -----------------------------------------------------------

type parser struct {
	lex *lexer
	i   int
}

func (p *parser) peek() token { return p.lex.toks[p.i] }
func (p *parser) next() token {
	t := p.lex.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("datalog: expected %s at position %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

// rule := head ":-" atom ("," atom)* (";" assign)? "."
func (p *parser) rule() (*Rule, error) {
	head, err := p.head()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokTurnstile, "':-'"); err != nil {
		return nil, err
	}
	r := &Rule{Head: *head}
	for {
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		r.Atoms = append(r.Atoms, a)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.peek().kind == tokSemi {
		p.next()
		asg, err := p.assign()
		if err != nil {
			return nil, err
		}
		r.Assign = asg
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return nil, err
	}
	if err := validate(r); err != nil {
		return nil, err
	}
	return r, nil
}

// head := ident "*"? "(" vars? (";" annDecl)? ")" ("[" "i" "=" num "]")?
func (p *parser) head() (*Head, error) {
	name, err := p.expect(tokIdent, "head name")
	if err != nil {
		return nil, err
	}
	h := &Head{Name: name.text}
	if p.peek().kind == tokStar {
		p.next()
		h.Recursive = true
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent {
		h.Vars = append(h.Vars, p.next().text)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.peek().kind == tokSemi {
		p.next()
		av, err := p.expect(tokIdent, "annotation alias")
		if err != nil {
			return nil, err
		}
		h.AnnVar = av.text
		if p.peek().kind == tokColon {
			p.next()
			at, err := p.expect(tokIdent, "annotation type")
			if err != nil {
				return nil, err
			}
			h.AnnType = at.text
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	// Kleene-star bound: "(…)*[i=5]" puts '*' after the ')' in Table 1.
	if p.peek().kind == tokStar {
		p.next()
		h.Recursive = true
	}
	if p.peek().kind == tokLBracket {
		p.next()
		iv, err := p.expect(tokIdent, "iteration variable")
		if err != nil {
			return nil, err
		}
		if iv.text != "i" {
			return nil, fmt.Errorf("datalog: expected [i=k], got [%s=...]", iv.text)
		}
		if _, err := p.expect(tokEq, "'='"); err != nil {
			return nil, err
		}
		n, err := p.expect(tokNumber, "iteration count")
		if err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(n.text)
		if err != nil || k <= 0 || k > MaxFixpointIters {
			return nil, fmt.Errorf("datalog: bad iteration count %q (want 1..%d)", n.text, MaxFixpointIters)
		}
		h.Iterations = k
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// atom := ident "(" term ("," term)* ")"
func (p *parser) atom() (*Atom, error) {
	name, err := p.expect(tokIdent, "atom name")
	if err != nil {
		return nil, err
	}
	a := &Atom{Pred: name.text}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		switch t.kind {
		case tokIdent:
			a.Args = append(a.Args, Term{Var: t.text})
		case tokString:
			a.Args = append(a.Args, Term{Const: &Const{IsString: true, Str: t.text}})
		case tokNumber:
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("datalog: bad number %q", t.text)
			}
			a.Args = append(a.Args, Term{Const: &Const{Num: v}})
		default:
			return nil, fmt.Errorf("datalog: expected term at position %d, got %q", t.pos, t.text)
		}
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return a, nil
}

// assign := ident "=" expr
func (p *parser) assign() (*Assign, error) {
	v, err := p.expect(tokIdent, "annotation variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokEq, "'='"); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Assign{Var: v.text, Expr: e}, nil
}

// expr := term (("+"|"-") term)*
// term := factor (("*"|"/") factor)*
// factor := number | ident | "<<" AGG "(" (ident|"*") ")" ">>" | "(" expr ")"
func (p *parser) expr() (Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		if k != tokPlus && k != tokMinus {
			return left, nil
		}
		op := byte('+')
		if k == tokMinus {
			op = '-'
		}
		p.next()
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		k := p.peek().kind
		if k != tokStar && k != tokSlash {
			return left, nil
		}
		op := byte('*')
		if k == tokSlash {
			op = '/'
		}
		p.next()
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) factor() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("datalog: bad number %q", t.text)
		}
		return NumExpr{Value: v}, nil
	case tokIdent:
		return RefExpr{Name: t.text}, nil
	case tokLParen:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokAggOpen:
		op, err := p.expect(tokIdent, "aggregate name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		arg := "*"
		switch p.peek().kind {
		case tokStar:
			p.next()
		case tokIdent:
			arg = p.next().text
		default:
			return nil, fmt.Errorf("datalog: expected aggregate argument at %d", p.peek().pos)
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAggClose, "'>>'"); err != nil {
			return nil, err
		}
		return AggExpr{Op: strings.ToUpper(op.text), Arg: arg}, nil
	}
	return nil, fmt.Errorf("datalog: unexpected token %q at position %d", t.text, t.pos)
}

// validate applies the static checks: head vars appear in the body, the
// assignment targets the declared annotation alias, and at most one
// aggregate appears.
func validate(r *Rule) error {
	bodyVars := map[string]bool{}
	for _, a := range r.Atoms {
		for _, t := range a.Args {
			if t.Var != "" {
				bodyVars[t.Var] = true
			}
		}
	}
	for _, v := range r.Head.Vars {
		if !bodyVars[v] {
			return fmt.Errorf("datalog: head variable %s not bound in body", v)
		}
	}
	if r.Assign != nil {
		if r.Head.AnnVar == "" {
			return fmt.Errorf("datalog: assignment %s= without annotation alias in head", r.Assign.Var)
		}
		if r.Assign.Var != r.Head.AnnVar {
			return fmt.Errorf("datalog: assignment targets %s, head declares %s", r.Assign.Var, r.Head.AnnVar)
		}
		if agg := FindAgg(r.Assign.Expr); agg != nil {
			if agg.Arg != "*" && !bodyVars[agg.Arg] {
				return fmt.Errorf("datalog: aggregate over unbound variable %s", agg.Arg)
			}
			if n := countAggs(r.Assign.Expr); n > 1 {
				return fmt.Errorf("datalog: at most one aggregate per rule, found %d", n)
			}
		}
	}
	if r.Head.AnnVar != "" && r.Assign == nil {
		return fmt.Errorf("datalog: head declares annotation %s but body has no assignment", r.Head.AnnVar)
	}
	return nil
}

func countAggs(e Expr) int {
	switch x := e.(type) {
	case AggExpr:
		return 1
	case BinExpr:
		return countAggs(x.L) + countAggs(x.R)
	case *BinExpr:
		return countAggs(x.L) + countAggs(x.R)
	default:
		_ = x
		return 0
	}
}
