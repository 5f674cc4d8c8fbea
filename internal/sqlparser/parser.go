package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parse parses one SQL query (optionally terminated by a semicolon).
func Parse(sql string) (*Query, error) {
	toks, err := Lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().Upper == ";" {
		p.next()
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %s after end of query", p.peek())
	}
	return q, nil
}

type parser struct {
	toks  []Token
	pos   int
	depth int // nesting levels entered (see enter)
}

// maxDepth bounds how deeply a query nests: parenthesised expressions,
// subqueries, table functions, and NOT and unary minus chains. The parser
// recurses once per level, and a goroutine that outgrows its stack dies with
// a fatal error that recover cannot catch, so a deeper query is refused.
const maxDepth = 1000

// enter opens one nesting level, refusing the query at the token that would
// open level maxDepth+1; leave closes it.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxDepth {
		return p.errf("query nests more than %d levels deep", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peek2() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

// matchKw consumes the next token if it is the given keyword.
func (p *parser) matchKw(kw string) bool {
	if p.peek().Kind == TokIdent && p.peek().Upper == kw {
		p.next()
		return true
	}
	return false
}

// matchOp consumes the next token if it is the given operator.
func (p *parser) matchOp(op string) bool {
	if p.peek().Kind == TokOp && p.peek().Upper == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.matchKw(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.matchOp(op) {
		return p.errf("expected %q, found %s", op, p.peek())
	}
	return nil
}

func (p *parser) isKw(kw string) bool {
	return p.peek().Kind == TokIdent && p.peek().Upper == kw
}

// reservedAfterRelation lists keywords that terminate a table reference, so
// a bare identifier after a relation is treated as its alias only when it is
// not one of these.
var reservedAfterRelation = map[string]bool{
	"WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true, "LIMIT": true,
	"EMIT": true, "UNION": true, "INTERSECT": true, "EXCEPT": true, "ON": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"CROSS": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"SELECT": true, "FROM": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
}

// parseQuery parses a query body plus trailing ORDER BY/LIMIT/EMIT.
func (p *parser) parseQuery() (*Query, error) {
	body, err := p.parseQueryBody()
	if err != nil {
		return nil, err
	}
	q := &Query{Body: body}
	if p.matchKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.matchKw("DESC") {
				item.Desc = true
			} else {
				p.matchKw("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Limit = e
	}
	if p.matchKw("EMIT") {
		emit, err := p.parseEmit()
		if err != nil {
			return nil, err
		}
		q.Emit = emit
	}
	return q, nil
}

// parseEmit parses the body of an EMIT clause (after the EMIT keyword):
// [STREAM] [AFTER WATERMARK | AFTER DELAY expr [AND AFTER ...] ...].
func (p *parser) parseEmit() (*EmitClause, error) {
	emit := &EmitClause{}
	if p.matchKw("STREAM") {
		emit.Stream = true
	}
	first := true
	for {
		if !p.isKw("AFTER") {
			if first {
				break
			}
			return nil, p.errf("expected AFTER in EMIT clause, found %s", p.peek())
		}
		p.next() // AFTER
		switch {
		case p.matchKw("WATERMARK"):
			emit.AfterWatermark = true
		case p.matchKw("DELAY"):
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			emit.AfterDelay = e
		default:
			return nil, p.errf("expected WATERMARK or DELAY after AFTER, found %s", p.peek())
		}
		first = false
		if !p.matchKw("AND") {
			break
		}
	}
	if !emit.Stream && !emit.AfterWatermark && emit.AfterDelay == nil {
		return nil, p.errf("empty EMIT clause")
	}
	return emit, nil
}

// parseQueryBody parses SELECT ... [UNION [ALL] SELECT ...]*, left-assoc.
func (p *parser) parseQueryBody() (QueryBody, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseSelectOrParen()
	if err != nil {
		return nil, err
	}
	for {
		var op SetOpKind
		switch {
		case p.isKw("UNION"):
			op = Union
		case p.isKw("INTERSECT"):
			op = Intersect
		case p.isKw("EXCEPT"):
			op = Except
		default:
			return left, nil
		}
		p.next()
		all := p.matchKw("ALL")
		right, err := p.parseSelectOrParen()
		if err != nil {
			return nil, err
		}
		left = &SetOpQuery{Op: op, All: all, Left: left, Right: right}
	}
}

func (p *parser) parseSelectOrParen() (QueryBody, error) {
	if p.matchOp("(") {
		body, err := p.parseQueryBody()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return body, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.matchKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.matchKw("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.matchOp(",") {
			break
		}
	}
	if p.matchKw("FROM") {
		for {
			t, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, t)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.matchKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.matchOp("*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: ident.*
	if p.peek().Kind == TokIdent && p.peek2().Upper == "." &&
		p.pos+2 < len(p.toks) && p.toks[p.pos+2].Upper == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.matchKw("AS") {
		if p.peek().Kind != TokIdent {
			return item, p.errf("expected alias after AS, found %s", p.peek())
		}
		item.Alias = p.next().Text
	} else if p.peek().Kind == TokIdent && !reservedAfterRelation[p.peek().Upper] {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseTableExpr parses one FROM element, including chained explicit JOINs.
func (p *parser) parseTableExpr() (TableExpr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parsePrimaryTable()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.isKw("JOIN"):
			p.next()
			kind = InnerJoin
		case p.isKw("INNER"):
			p.next()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = InnerJoin
		case p.isKw("LEFT"):
			p.next()
			p.matchKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = LeftJoin
		case p.isKw("RIGHT"):
			p.next()
			p.matchKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = RightJoin
		case p.isKw("FULL"):
			p.next()
			p.matchKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = FullJoin
		case p.isKw("CROSS"):
			p.next()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = CrossJoin
		default:
			return left, nil
		}
		right, err := p.parsePrimaryTable()
		if err != nil {
			return nil, err
		}
		j := &JoinExpr{Kind: kind, Left: left, Right: right}
		if kind != CrossJoin {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *parser) parsePrimaryTable() (TableExpr, error) {
	// Derived table: ( query ) alias
	if p.matchOp("(") {
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Query: q}
		ref.Alias = p.parseOptionalAlias()
		return ref, nil
	}
	if p.peek().Kind != TokIdent {
		return nil, p.errf("expected table name, found %s", p.peek())
	}
	name := p.next().Text
	// Table-valued function: name(...)
	if p.peek().Upper == "(" {
		p.next()
		ref := &TVFRef{Name: strings.ToUpper(name)}
		if !p.matchOp(")") {
			for {
				arg, err := p.parseTVFArg()
				if err != nil {
					return nil, err
				}
				ref.Args = append(ref.Args, arg)
				if !p.matchOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		ref.Alias = p.parseOptionalAlias()
		return ref, nil
	}
	ref := &TableRef{Name: name}
	// AS OF SYSTEM TIME expr (temporal table access). The AS here is part
	// of the construct, not an alias, so look ahead for OF.
	if p.isKw("AS") && p.peek2().Upper == "OF" {
		p.next() // AS
		p.next() // OF
		if err := p.expectKw("SYSTEM"); err != nil {
			return nil, err
		}
		if err := p.expectKw("TIME"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ref.AsOf = e
	}
	ref.Alias = p.parseOptionalAlias()
	return ref, nil
}

func (p *parser) parseOptionalAlias() string {
	if p.matchKw("AS") {
		if p.peek().Kind == TokIdent {
			return p.next().Text
		}
		return ""
	}
	if p.peek().Kind == TokIdent && !reservedAfterRelation[p.peek().Upper] {
		return p.next().Text
	}
	return ""
}

func (p *parser) parseTVFArg() (TVFArg, error) {
	arg := TVFArg{}
	// Named argument: ident => value
	if p.peek().Kind == TokIdent && p.peek2().Upper == "=>" {
		arg.Name = strings.ToLower(p.next().Text)
		p.next() // =>
	}
	val, err := p.parseTVFArgValue()
	if err != nil {
		return arg, err
	}
	arg.Value = val
	return arg, nil
}

func (p *parser) parseTVFArgValue() (TVFArgValue, error) {
	switch {
	case p.isKw("TABLE"):
		p.next()
		// TABLE(name) or TABLE name (the paper uses both spellings).
		if p.matchOp("(") {
			t, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &TableArg{Table: t}, nil
		}
		if p.peek().Kind != TokIdent {
			return nil, p.errf("expected table name after TABLE, found %s", p.peek())
		}
		return &TableArg{Table: &TableRef{Name: p.next().Text}}, nil
	case p.isKw("DESCRIPTOR"):
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			if p.peek().Kind != TokIdent {
				return nil, p.errf("expected column name in DESCRIPTOR, found %s", p.peek())
			}
			cols = append(cols, p.next().Text)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &DescriptorArg{Cols: cols}, nil
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprArg{E: e}, nil
	}
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("AND") {
		// EMIT ... AFTER DELAY <expr> AND AFTER WATERMARK: the AND here
		// belongs to the EMIT clause, not the expression.
		if p.peek2().Upper == "AFTER" {
			return left, nil
		}
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.matchKw("NOT") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Neg: false, E: e}, nil
	}
	return p.parseComparison()
}

var compOps = map[string]BinOpKind{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates.
	for {
		if p.peek().Kind == TokOp {
			if op, ok := compOps[p.peek().Upper]; ok {
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BinaryExpr{Op: op, L: left, R: right}
				continue
			}
		}
		switch {
		case p.isKw("BETWEEN") || (p.isKw("NOT") && p.peek2().Upper == "BETWEEN"):
			not := p.matchKw("NOT")
			p.next() // BETWEEN
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: not}
		case p.isKw("IS"):
			p.next()
			not := p.matchKw("NOT")
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{E: left, Not: not}
		case p.isKw("IN") || (p.isKw("NOT") && p.peek2().Upper == "IN"):
			not := p.matchKw("NOT")
			p.next() // IN
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.matchOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			left = &InExpr{E: left, List: list, Not: not}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOpKind
		switch {
		case p.matchOp("+"):
			op = OpAdd
		case p.matchOp("-"):
			op = OpSub
		case p.matchOp("||"):
			op = OpConcat
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOpKind
		switch {
		case p.matchOp("*"):
			op = OpMul
		case p.matchOp("/"):
			op = OpDiv
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.matchOp("-") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Neg: true, E: e}, nil
	}
	p.matchOp("+") // unary plus is a no-op
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.Text)
		}
		return &Literal{Val: types.NewInt(i)}, nil
	case TokString:
		p.next()
		return &Literal{Val: types.NewString(t.Text)}, nil
	case TokOp:
		if t.Upper == "(" {
			p.next()
			// Scalar subquery or parenthesised expression.
			if p.isKw("SELECT") {
				q, err := p.parseQuery()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: q}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %s", t)
	case TokIdent:
		if reservedAfterRelation[t.Upper] && t.Upper != "END" {
			return nil, p.errf("unexpected keyword %s in expression", t.Upper)
		}
		switch t.Upper {
		case "NULL":
			p.next()
			return &Literal{Val: types.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: types.NewBool(false)}, nil
		case "INTERVAL":
			return p.parseIntervalLiteral()
		case "TIMESTAMP":
			// TIMESTAMP 'h:mm[:ss]' literal.
			if p.peek2().Kind == TokString {
				p.next()
				lit := p.next()
				tv, err := parseTimeLiteral(lit.Text)
				if err != nil {
					return nil, &SyntaxError{Msg: err.Error(), Line: lit.Line, Col: lit.Col}
				}
				return &Literal{Val: types.NewTimestamp(tv)}, nil
			}
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		}
		p.next()
		// Function call: ident(...)
		if p.peek().Upper == "(" && p.peek().Kind == TokOp {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column: ident.ident
		if p.peek().Upper == "." && p.peek().Kind == TokOp {
			p.next()
			if p.peek().Kind != TokIdent {
				return nil, p.errf("expected column name after %q., found %s", t.Text, p.peek())
			}
			col := p.next().Text
			return &ColumnRef{Table: t.Text, Name: col}, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	default:
		return nil, p.errf("unexpected %s", t)
	}
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	// The opening paren is the current token.
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: strings.ToUpper(name)}
	if p.matchOp("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.matchOp(")") {
		return f, nil
	}
	if p.matchKw("DISTINCT") {
		f.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.matchOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !p.isKw("WHEN") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = e
	}
	for p.matchKw("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{When: w, Then: th})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.matchKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

var castKinds = map[string]types.Kind{
	"BIGINT": types.KindInt64, "INT": types.KindInt64, "INTEGER": types.KindInt64,
	"DOUBLE": types.KindFloat64, "FLOAT": types.KindFloat64, "REAL": types.KindFloat64,
	"VARCHAR": types.KindString, "CHAR": types.KindString, "TEXT": types.KindString, "STRING": types.KindString,
	"BOOLEAN": types.KindBool, "BOOL": types.KindBool,
	"TIMESTAMP": types.KindTimestamp,
}

func (p *parser) parseCast() (Expr, error) {
	if err := p.expectKw("CAST"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	if p.peek().Kind != TokIdent {
		return nil, p.errf("expected type name in CAST, found %s", p.peek())
	}
	tn := p.next().Upper
	kind, ok := castKinds[tn]
	if !ok {
		return nil, p.errf("unknown type %q in CAST", tn)
	}
	// Allow VARCHAR(n) / CHAR(n).
	if p.matchOp("(") {
		if p.peek().Kind != TokNumber {
			return nil, p.errf("expected length in type, found %s", p.peek())
		}
		p.next()
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CastExpr{E: e, To: kind}, nil
}

var intervalUnits = map[string]types.Duration{
	"MILLISECOND": types.Millisecond, "MILLISECONDS": types.Millisecond,
	"SECOND": types.Second, "SECONDS": types.Second,
	"MINUTE": types.Minute, "MINUTES": types.Minute,
	"HOUR": types.Hour, "HOURS": types.Hour,
	"DAY": types.Day, "DAYS": types.Day,
}

func (p *parser) parseIntervalLiteral() (Expr, error) {
	if err := p.expectKw("INTERVAL"); err != nil {
		return nil, err
	}
	if p.peek().Kind != TokString {
		return nil, p.errf("expected quoted value after INTERVAL, found %s", p.peek())
	}
	lit := p.next()
	n, err := strconv.ParseInt(strings.TrimSpace(lit.Text), 10, 64)
	if err != nil {
		return nil, &SyntaxError{Msg: fmt.Sprintf("bad interval value %q", lit.Text), Line: lit.Line, Col: lit.Col}
	}
	if p.peek().Kind != TokIdent {
		return nil, p.errf("expected interval unit, found %s", p.peek())
	}
	unitTok := p.next()
	unit, ok := intervalUnits[unitTok.Upper]
	if !ok {
		return nil, &SyntaxError{Msg: fmt.Sprintf("unknown interval unit %q", unitTok.Text), Line: unitTok.Line, Col: unitTok.Col}
	}
	return &Literal{Val: types.NewInterval(types.Duration(n) * unit)}, nil
}

// parseTimeLiteral parses "h:mm", "h:mm:ss", or a bare integer (epoch ms).
func parseTimeLiteral(s string) (types.Time, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	switch len(parts) {
	case 1:
		ms, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp literal %q", s)
		}
		return types.Time(ms), nil
	case 2, 3:
		h, err1 := strconv.Atoi(parts[0])
		m, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad timestamp literal %q", s)
		}
		sec := 0
		if len(parts) == 3 {
			var err error
			sec, err = strconv.Atoi(parts[2])
			if err != nil {
				return 0, fmt.Errorf("bad timestamp literal %q", s)
			}
		}
		return types.ClockTime(h, m, sec), nil
	default:
		return 0, fmt.Errorf("bad timestamp literal %q", s)
	}
}
