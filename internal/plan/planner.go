package plan

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// Planner translates parsed queries into validated logical plans.
type Planner struct {
	cat Catalog
	cfg Config
}

// New creates a planner over the given catalog.
func New(cat Catalog, cfg Config) *Planner {
	return &Planner{cat: cat, cfg: cfg}
}

// Plan plans a full query including presentation and EMIT validation.
func (p *Planner) Plan(q *sqlparser.Query) (*PlannedQuery, error) {
	root, err := p.planBody(q.Body)
	if err != nil {
		return nil, err
	}
	pq := &PlannedQuery{Root: root}
	outSch := root.Schema()
	for _, o := range q.OrderBy {
		idx, err := resolveOutputColumn(o.Expr, outSch)
		if err != nil {
			return nil, err
		}
		pq.OrderBy = append(pq.OrderBy, SortKey{Col: idx, Desc: o.Desc})
	}
	if q.Limit != nil {
		lit, ok := q.Limit.(*sqlparser.Literal)
		if !ok || lit.Val.Kind() != types.KindInt64 || lit.Val.Int() < 0 {
			return nil, fmt.Errorf("plan: LIMIT must be a non-negative integer literal")
		}
		n := lit.Val.Int()
		pq.Limit = &n
	}
	if q.Emit != nil {
		spec, err := p.planEmit(q.Emit, root)
		if err != nil {
			return nil, err
		}
		pq.Emit = spec
		if spec.Stream && len(pq.OrderBy) > 0 {
			return nil, fmt.Errorf("plan: ORDER BY cannot be combined with EMIT STREAM (a changelog has no total order to present)")
		}
		if spec.Stream && pq.Limit != nil {
			return nil, fmt.Errorf("plan: LIMIT cannot be combined with EMIT STREAM")
		}
	}
	pq.EmitKeyIdxs = outSch.EmitKeyCols()
	return pq, nil
}

func (p *Planner) planEmit(e *sqlparser.EmitClause, root Node) (EmitSpec, error) {
	spec := EmitSpec{Stream: e.Stream, AfterWatermark: e.AfterWatermark}
	if e.AfterDelay != nil {
		b := &binder{}
		s, err := b.bind(e.AfterDelay)
		if err != nil {
			return spec, err
		}
		if !IsConst(s) || s.Kind() != types.KindInterval {
			return spec, fmt.Errorf("plan: EMIT AFTER DELAY requires a constant INTERVAL")
		}
		v, err := s.Eval(nil)
		if err != nil {
			return spec, err
		}
		if v.Interval() <= 0 {
			return spec, fmt.Errorf("plan: EMIT AFTER DELAY requires a positive INTERVAL")
		}
		d := v.Interval()
		spec.Delay = &d
	}
	if (spec.AfterWatermark || spec.Delay != nil) && !root.Schema().HasEventTime() {
		return spec, fmt.Errorf("plan: EMIT AFTER WATERMARK/DELAY requires an event-time column in the query result (Extension 1); the result schema %s has none", root.Schema())
	}
	return spec, nil
}

// resolveOutputColumn resolves an ORDER BY expression against the output
// schema: by name, qualified name, or 1-based ordinal.
func resolveOutputColumn(e sqlparser.Expr, sch *types.Schema) (int, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		if idx := sch.IndexOf(x.Name); idx >= 0 {
			return idx, nil
		}
		return 0, fmt.Errorf("plan: ORDER BY column %s not in result", x)
	case *sqlparser.Literal:
		if x.Val.Kind() == types.KindInt64 {
			n := x.Val.Int()
			if n >= 1 && int(n) <= sch.Len() {
				return int(n - 1), nil
			}
		}
		return 0, fmt.Errorf("plan: ORDER BY position %s out of range", x)
	default:
		return 0, fmt.Errorf("plan: ORDER BY supports output columns and ordinals only")
	}
}

func (p *Planner) planBody(body sqlparser.QueryBody) (Node, error) {
	switch b := body.(type) {
	case *sqlparser.SelectStmt:
		return p.planSelect(b)
	case *sqlparser.SetOpQuery:
		return p.planSetOp(b)
	default:
		return nil, fmt.Errorf("plan: unsupported query body %T", body)
	}
}

func (p *Planner) planSetOp(s *sqlparser.SetOpQuery) (Node, error) {
	left, err := p.planBody(s.Left)
	if err != nil {
		return nil, err
	}
	right, err := p.planBody(s.Right)
	if err != nil {
		return nil, err
	}
	sch, err := unifySchemas(left.Schema(), right.Schema())
	if err != nil {
		return nil, fmt.Errorf("plan: %s: %w", s.Op, err)
	}
	var node Node
	switch s.Op {
	case sqlparser.Union:
		node = &Union{Inputs: []Node{left, right}, Sch: sch}
		if !s.All {
			node = &Distinct{Input: node}
		}
	default:
		node = &SetOp{Op: s.Op, All: s.All, Left: left, Right: right, Sch: sch}
	}
	return node, nil
}

// unifySchemas checks set-operation compatibility and merges column
// metadata: names come from the left; event-time alignment survives only if
// both sides agree.
func unifySchemas(l, r *types.Schema) (*types.Schema, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("operand column counts differ (%d vs %d)", l.Len(), r.Len())
	}
	cols := make([]types.Column, l.Len())
	for i := range cols {
		lc, rc := l.Cols[i], r.Cols[i]
		k := lc.Kind
		switch {
		case lc.Kind == rc.Kind:
		case lc.Kind.IsNumeric() && rc.Kind.IsNumeric():
			k = types.KindFloat64
		case lc.Kind == types.KindNull:
			k = rc.Kind
		case rc.Kind == types.KindNull:
		default:
			return nil, fmt.Errorf("column %d kinds differ (%s vs %s)", i+1, lc.Kind, rc.Kind)
		}
		cols[i] = types.Column{
			Name:      lc.Name,
			Kind:      k,
			EventTime: lc.EventTime && rc.EventTime && lc.WmOffset == rc.WmOffset,
			Windowed:  lc.Windowed && rc.Windowed,
		}
		if cols[i].EventTime {
			cols[i].WmOffset = lc.WmOffset
		}
	}
	return &types.Schema{Cols: cols}, nil
}

// ---- scopes and binding ----

type scopeItem struct {
	qualifier string
	sch       *types.Schema
	offset    int
}

type scope struct {
	items []scopeItem
}

func (s *scope) width() int {
	if len(s.items) == 0 {
		return 0
	}
	last := s.items[len(s.items)-1]
	return last.offset + last.sch.Len()
}

func (s *scope) add(qualifier string, sch *types.Schema) {
	s.items = append(s.items, scopeItem{qualifier: qualifier, sch: sch, offset: s.width()})
}

func (s *scope) schema() *types.Schema {
	out := &types.Schema{}
	for _, it := range s.items {
		out.Cols = append(out.Cols, it.sch.Cols...)
	}
	return out
}

// resolve finds a column by (optional) qualifier and name, returning its
// absolute index and metadata.
func (s *scope) resolve(tbl, col string) (int, types.Column, error) {
	found := -1
	var meta types.Column
	for _, it := range s.items {
		if tbl != "" && !strings.EqualFold(tbl, it.qualifier) {
			continue
		}
		if idx := it.sch.IndexOf(col); idx >= 0 {
			if found >= 0 {
				return 0, meta, fmt.Errorf("plan: column %q is ambiguous", refName(tbl, col))
			}
			found = it.offset + idx
			meta = it.sch.Cols[idx]
		}
	}
	if found < 0 {
		return 0, meta, fmt.Errorf("plan: column %q not found", refName(tbl, col))
	}
	return found, meta, nil
}

func refName(tbl, col string) string {
	if tbl == "" {
		return col
	}
	return tbl + "." + col
}

// binder compiles AST expressions into Scalars over a scope's row layout.
type binder struct {
	sc   *scope // nil means constants only
	subq map[*sqlparser.SubqueryExpr]int
}

func (b *binder) bind(e sqlparser.Expr) (Scalar, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &Const{Val: x.Val}, nil
	case *sqlparser.ColumnRef:
		if b.sc == nil {
			return nil, fmt.Errorf("plan: column %s not allowed in constant expression", x)
		}
		idx, meta, err := b.sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return &ColRef{Idx: idx, Name: meta.Name, K: meta.Kind}, nil
	case *sqlparser.BinaryExpr:
		l, err := b.bind(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(x.R)
		if err != nil {
			return nil, err
		}
		return NewBinOp(x.Op, l, r)
	case *sqlparser.UnaryExpr:
		in, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			k := in.Kind()
			if !k.IsNumeric() && k != types.KindInterval && k != types.KindNull {
				return nil, fmt.Errorf("plan: cannot negate %s", k)
			}
			return &Neg{E: in}, nil
		}
		if in.Kind() != types.KindBool && in.Kind() != types.KindNull {
			return nil, fmt.Errorf("plan: NOT requires BOOLEAN, got %s", in.Kind())
		}
		return &Not{E: in}, nil
	case *sqlparser.IsNullExpr:
		in, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: in, Not: x.Not}, nil
	case *sqlparser.BetweenExpr:
		// Desugar to (Lo <= E AND E <= Hi), negated if NOT.
		in, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(x.Hi)
		if err != nil {
			return nil, err
		}
		lower, err := NewBinOp(sqlparser.OpGe, in, lo)
		if err != nil {
			return nil, err
		}
		upper, err := NewBinOp(sqlparser.OpLe, in, hi)
		if err != nil {
			return nil, err
		}
		both, err := NewBinOp(sqlparser.OpAnd, lower, upper)
		if err != nil {
			return nil, err
		}
		if x.Not {
			return &Not{E: both}, nil
		}
		return both, nil
	case *sqlparser.InExpr:
		// Desugar to a chain of equality ORs.
		in, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		var acc Scalar
		for _, item := range x.List {
			it, err := b.bind(item)
			if err != nil {
				return nil, err
			}
			eq, err := NewBinOp(sqlparser.OpEq, in, it)
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = eq
			} else {
				acc, err = NewBinOp(sqlparser.OpOr, acc, eq)
				if err != nil {
					return nil, err
				}
			}
		}
		if x.Not {
			return &Not{E: acc}, nil
		}
		return acc, nil
	case *sqlparser.CaseExpr:
		return b.bindCase(x)
	case *sqlparser.CastExpr:
		in, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		return &Cast{E: in, To: x.To}, nil
	case *sqlparser.FuncCall:
		if _, isAgg := aggKinds[x.Name]; isAgg {
			return nil, fmt.Errorf("plan: aggregate %s is not allowed here", x.Name)
		}
		args := make([]Scalar, len(x.Args))
		for i, a := range x.Args {
			s, err := b.bind(a)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return NewCall(x.Name, args)
	case *sqlparser.SubqueryExpr:
		if b.subq != nil {
			if idx, ok := b.subq[x]; ok {
				return &ColRef{Idx: idx, Name: "subquery", K: b.subqKind(x)}, nil
			}
		}
		return nil, fmt.Errorf("plan: scalar subqueries are supported only in WHERE of non-aggregate queries (and must be uncorrelated)")
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// subqKind looks up the registered result kind for a planned subquery.
func (b *binder) subqKind(x *sqlparser.SubqueryExpr) types.Kind {
	idx := b.subq[x]
	sch := b.sc.schema()
	if idx < sch.Len() {
		return sch.Cols[idx].Kind
	}
	return types.KindNull
}

func (b *binder) bindCase(x *sqlparser.CaseExpr) (Scalar, error) {
	c := &Case{}
	var operand Scalar
	if x.Operand != nil {
		var err error
		operand, err = b.bind(x.Operand)
		if err != nil {
			return nil, err
		}
	}
	resultKind := types.KindNull
	for _, w := range x.Whens {
		cond, err := b.bind(w.When)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond, err = NewBinOp(sqlparser.OpEq, operand, cond)
			if err != nil {
				return nil, err
			}
		} else if cond.Kind() != types.KindBool && cond.Kind() != types.KindNull {
			return nil, fmt.Errorf("plan: CASE WHEN requires BOOLEAN, got %s", cond.Kind())
		}
		then, err := b.bind(w.Then)
		if err != nil {
			return nil, err
		}
		if resultKind == types.KindNull {
			resultKind = then.Kind()
		} else if then.Kind() != types.KindNull && then.Kind() != resultKind {
			if then.Kind().IsNumeric() && resultKind.IsNumeric() {
				resultKind = types.KindFloat64
			} else {
				return nil, fmt.Errorf("plan: CASE branches have mixed kinds %s and %s", resultKind, then.Kind())
			}
		}
		c.Whens = append(c.Whens, CaseWhen{When: cond, Then: then})
	}
	if x.Else != nil {
		e, err := b.bind(x.Else)
		if err != nil {
			return nil, err
		}
		if resultKind == types.KindNull {
			resultKind = e.Kind()
		} else if e.Kind() != types.KindNull && e.Kind() != resultKind {
			if e.Kind().IsNumeric() && resultKind.IsNumeric() {
				resultKind = types.KindFloat64
			} else {
				return nil, fmt.Errorf("plan: CASE branches have mixed kinds %s and %s", resultKind, e.Kind())
			}
		}
		c.Else = e
	}
	c.K = resultKind
	return c, nil
}

// ---- FROM planning ----

func (p *Planner) planFrom(items []sqlparser.TableExpr) (Node, *scope, error) {
	if len(items) == 0 {
		sch := types.NewSchema()
		node := &Values{Rows: []types.Row{{}}, Sch: sch}
		sc := &scope{}
		sc.add("", sch)
		return node, sc, nil
	}
	var node Node
	sc := &scope{}
	for _, item := range items {
		n, itemScope, err := p.planTableExpr(item)
		if err != nil {
			return nil, nil, err
		}
		if node == nil {
			node = n
			for _, it := range itemScope.items {
				sc.items = append(sc.items, it)
			}
			continue
		}
		base := sc.width()
		node = &Join{
			Left: node, Right: n, Kind: sqlparser.CrossJoin,
			Sch: node.Schema().Concat(n.Schema()),
		}
		for _, it := range itemScope.items {
			it.offset += base
			sc.items = append(sc.items, it)
		}
	}
	return node, sc, nil
}

func (p *Planner) planTableExpr(te sqlparser.TableExpr) (Node, *scope, error) {
	switch t := te.(type) {
	case *sqlparser.TableRef:
		rel, err := p.cat.Resolve(t.Name)
		if err != nil {
			return nil, nil, err
		}
		scan := &Scan{Name: rel.Name, Sch: rel.Schema.Clone(), Stream: rel.Unbounded}
		if t.AsOf != nil {
			b := &binder{}
			s, err := b.bind(t.AsOf)
			if err != nil {
				return nil, nil, err
			}
			if !IsConst(s) || s.Kind() != types.KindTimestamp {
				return nil, nil, fmt.Errorf("plan: AS OF SYSTEM TIME requires a constant TIMESTAMP")
			}
			v, err := s.Eval(nil)
			if err != nil {
				return nil, nil, err
			}
			at := v.Timestamp()
			scan.AsOf = &at
		}
		q := t.Alias
		if q == "" {
			q = t.Name
		}
		sc := &scope{}
		sc.add(q, scan.Sch)
		return scan, sc, nil
	case *sqlparser.SubqueryRef:
		if t.Query.Emit != nil {
			return nil, nil, fmt.Errorf("plan: EMIT is only allowed at the top level of a query")
		}
		if len(t.Query.OrderBy) > 0 || t.Query.Limit != nil {
			return nil, nil, fmt.Errorf("plan: ORDER BY/LIMIT are not supported in derived tables")
		}
		node, err := p.planBody(t.Query.Body)
		if err != nil {
			return nil, nil, err
		}
		sc := &scope{}
		sc.add(t.Alias, node.Schema())
		return node, sc, nil
	case *sqlparser.TVFRef:
		return p.planTVF(t)
	case *sqlparser.JoinExpr:
		return p.planJoin(t)
	default:
		return nil, nil, fmt.Errorf("plan: unsupported FROM element %T", te)
	}
}

func (p *Planner) planJoin(j *sqlparser.JoinExpr) (Node, *scope, error) {
	left, lsc, err := p.planTableExpr(j.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rsc, err := p.planTableExpr(j.Right)
	if err != nil {
		return nil, nil, err
	}
	sc := &scope{}
	for _, it := range lsc.items {
		sc.items = append(sc.items, it)
	}
	base := sc.width()
	for _, it := range rsc.items {
		it.offset += base
		sc.items = append(sc.items, it)
	}
	node := &Join{
		Left: left, Right: right, Kind: j.Kind,
		Sch: left.Schema().Concat(right.Schema()),
	}
	if j.On != nil {
		b := &binder{sc: sc}
		cond, err := b.bind(j.On)
		if err != nil {
			return nil, nil, err
		}
		if cond.Kind() != types.KindBool && cond.Kind() != types.KindNull {
			return nil, nil, fmt.Errorf("plan: JOIN ON condition must be BOOLEAN")
		}
		extractJoinKeys(node, cond, left.Schema().Len())
	}
	return node, sc, nil
}

// extractJoinKeys splits cond into equi-key pairs and a residual predicate,
// storing both on the join node.
func extractJoinKeys(j *Join, cond Scalar, leftWidth int) {
	var residuals []Scalar
	for _, c := range Conjuncts(cond) {
		if lk, rk, ok := EquiPair(c, leftWidth); ok {
			j.LeftKeys = append(j.LeftKeys, lk)
			j.RightKeys = append(j.RightKeys, rk)
			continue
		}
		residuals = append(residuals, c)
	}
	j.Residual = Conjoin(j.Residual, residuals)
}

// Conjuncts splits s into the operands of its top-level ANDs, left to right.
func Conjuncts(s Scalar) []Scalar {
	if b, ok := s.(*BinOp); ok && b.Op == sqlparser.OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Scalar{s}
}

// Conjoin ANDs cs onto acc (nil: no predicate yet), left-deep and in order,
// and returns the conjunction (nil when both are empty).
func Conjoin(acc Scalar, cs []Scalar) Scalar {
	for _, c := range cs {
		if acc == nil {
			acc = c
		} else {
			acc = &BinOp{Op: sqlparser.OpAnd, L: acc, R: c, K: types.KindBool}
		}
	}
	return acc
}

// EquiPair recognizes c as an equi-join key, ColRef = ColRef across the
// boundary of a join whose left input is leftWidth columns wide, and returns
// the left column and the right input's column.
func EquiPair(c Scalar, leftWidth int) (lk, rk int, ok bool) {
	b, ok := c.(*BinOp)
	if !ok || b.Op != sqlparser.OpEq {
		return 0, 0, false
	}
	l, lok := b.L.(*ColRef)
	r, rok := b.R.(*ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	if l.Idx < leftWidth && r.Idx >= leftWidth {
		return l.Idx, r.Idx - leftWidth, true
	}
	if r.Idx < leftWidth && l.Idx >= leftWidth {
		return r.Idx, l.Idx - leftWidth, true
	}
	return 0, 0, false
}

func (p *Planner) planTVF(t *sqlparser.TVFRef) (Node, *scope, error) {
	var fn WindowFn
	var params []string
	switch t.Name {
	case "TUMBLE":
		fn = TumbleFn
		params = []string{"data", "timecol", "dur", "offset"}
	case "HOP":
		fn = HopFn
		params = []string{"data", "timecol", "dur", "hopsize", "offset"}
	case "SESSION":
		fn = SessionFn
		params = []string{"data", "timecol", "gap"}
	default:
		return nil, nil, fmt.Errorf("plan: unknown table-valued function %s", t.Name)
	}
	byName := make(map[string]sqlparser.TVFArgValue)
	positional := 0
	for _, a := range t.Args {
		name := a.Name
		if name == "" {
			if positional >= len(params) {
				return nil, nil, fmt.Errorf("plan: too many arguments to %s", t.Name)
			}
			name = params[positional]
			positional++
		}
		// Accept "slide" as an alias for hopsize and "size" for dur.
		switch name {
		case "slide":
			name = "hopsize"
		case "size":
			name = "dur"
		}
		if _, dup := byName[name]; dup {
			return nil, nil, fmt.Errorf("plan: duplicate argument %q to %s", name, t.Name)
		}
		known := false
		for _, pn := range params {
			if pn == name {
				known = true
			}
		}
		if !known {
			return nil, nil, fmt.Errorf("plan: unknown argument %q to %s", name, t.Name)
		}
		byName[name] = a.Value
	}

	dataArg, ok := byName["data"].(*sqlparser.TableArg)
	if !ok || dataArg == nil {
		return nil, nil, fmt.Errorf("plan: %s requires a data => TABLE(...) argument", t.Name)
	}
	input, _, err := p.planTableExpr(dataArg.Table)
	if err != nil {
		return nil, nil, err
	}
	desc, ok := byName["timecol"].(*sqlparser.DescriptorArg)
	if !ok || desc == nil || len(desc.Cols) != 1 {
		return nil, nil, fmt.Errorf("plan: %s requires timecol => DESCRIPTOR(column)", t.Name)
	}
	timeIdx := input.Schema().IndexOf(desc.Cols[0])
	if timeIdx < 0 {
		return nil, nil, fmt.Errorf("plan: %s: no column %q in input", t.Name, desc.Cols[0])
	}
	if k := input.Schema().Cols[timeIdx].Kind; k != types.KindTimestamp {
		return nil, nil, fmt.Errorf("plan: %s: time column %q must be TIMESTAMP, is %s", t.Name, desc.Cols[0], k)
	}

	getDur := func(name string, required bool) (types.Duration, error) {
		v, present := byName[name]
		if !present {
			if required {
				return 0, fmt.Errorf("plan: %s requires a %s argument", t.Name, name)
			}
			return 0, nil
		}
		ea, ok := v.(*sqlparser.ExprArg)
		if !ok {
			return 0, fmt.Errorf("plan: %s: %s must be an INTERVAL expression", t.Name, name)
		}
		b := &binder{}
		s, err := b.bind(ea.E)
		if err != nil {
			return 0, err
		}
		if !IsConst(s) || s.Kind() != types.KindInterval {
			return 0, fmt.Errorf("plan: %s: %s must be a constant INTERVAL", t.Name, name)
		}
		val, err := s.Eval(nil)
		if err != nil {
			return 0, err
		}
		return val.Interval(), nil
	}

	w := &WindowTVF{Input: input, Fn: fn, TimeIdx: timeIdx}
	switch fn {
	case TumbleFn:
		if w.Dur, err = getDur("dur", true); err != nil {
			return nil, nil, err
		}
		if w.Offset, err = getDur("offset", false); err != nil {
			return nil, nil, err
		}
		if w.Dur <= 0 {
			return nil, nil, fmt.Errorf("plan: Tumble duration must be positive")
		}
	case HopFn:
		if w.Dur, err = getDur("dur", true); err != nil {
			return nil, nil, err
		}
		if w.Slide, err = getDur("hopsize", true); err != nil {
			return nil, nil, err
		}
		if w.Offset, err = getDur("offset", false); err != nil {
			return nil, nil, err
		}
		if w.Dur <= 0 || w.Slide <= 0 {
			return nil, nil, fmt.Errorf("plan: Hop duration and hopsize must be positive")
		}
	case SessionFn:
		if w.Gap, err = getDur("gap", true); err != nil {
			return nil, nil, err
		}
		if w.Gap <= 0 {
			return nil, nil, fmt.Errorf("plan: Session gap must be positive")
		}
	}

	sch := input.Schema().Clone()
	wstart := types.Column{Name: "wstart", Kind: types.KindTimestamp}
	wend := types.Column{Name: "wend", Kind: types.KindTimestamp}
	// Event-time alignment of the window columns (see types.Column.WmOffset):
	// wend is complete once the watermark passes it; wstart needs the window
	// duration added. Session wstart is not alignable (merges can reuse an
	// old wstart arbitrarily late).
	wstart.Windowed = true
	wend.Windowed = true
	if fn != SessionFn {
		wstart.EventTime = true
		wstart.WmOffset = w.Dur
		wend.EventTime = true
	} else {
		wend.EventTime = true
	}
	sch.Cols = append(sch.Cols, wstart, wend)
	w.Sch = sch

	q := t.Alias
	if q == "" {
		q = t.Name
	}
	sc := &scope{}
	sc.add(q, sch)
	return w, sc, nil
}

// ---- SELECT planning ----

var aggKinds = map[string]AggKind{
	"SUM": AggSum, "COUNT": AggCount, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func containsAgg(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *sqlparser.FuncCall:
		if _, ok := aggKinds[x.Name]; ok {
			return true
		}
		for _, a := range x.Args {
			if containsAgg(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return containsAgg(x.L) || containsAgg(x.R)
	case *sqlparser.UnaryExpr:
		return containsAgg(x.E)
	case *sqlparser.IsNullExpr:
		return containsAgg(x.E)
	case *sqlparser.BetweenExpr:
		return containsAgg(x.E) || containsAgg(x.Lo) || containsAgg(x.Hi)
	case *sqlparser.InExpr:
		if containsAgg(x.E) {
			return true
		}
		for _, i := range x.List {
			if containsAgg(i) {
				return true
			}
		}
	case *sqlparser.CaseExpr:
		if containsAgg(x.Operand) || containsAgg(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if containsAgg(w.When) || containsAgg(w.Then) {
				return true
			}
		}
	case *sqlparser.CastExpr:
		return containsAgg(x.E)
	}
	return false
}

func collectSubqueries(e sqlparser.Expr, out *[]*sqlparser.SubqueryExpr) {
	switch x := e.(type) {
	case nil:
	case *sqlparser.SubqueryExpr:
		*out = append(*out, x)
	case *sqlparser.BinaryExpr:
		collectSubqueries(x.L, out)
		collectSubqueries(x.R, out)
	case *sqlparser.UnaryExpr:
		collectSubqueries(x.E, out)
	case *sqlparser.IsNullExpr:
		collectSubqueries(x.E, out)
	case *sqlparser.BetweenExpr:
		collectSubqueries(x.E, out)
		collectSubqueries(x.Lo, out)
		collectSubqueries(x.Hi, out)
	case *sqlparser.InExpr:
		collectSubqueries(x.E, out)
		for _, i := range x.List {
			collectSubqueries(i, out)
		}
	case *sqlparser.CaseExpr:
		collectSubqueries(x.Operand, out)
		collectSubqueries(x.Else, out)
		for _, w := range x.Whens {
			collectSubqueries(w.When, out)
			collectSubqueries(w.Then, out)
		}
	case *sqlparser.CastExpr:
		collectSubqueries(x.E, out)
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			collectSubqueries(a, out)
		}
	}
}

func (p *Planner) planSelect(sel *sqlparser.SelectStmt) (Node, error) {
	node, sc, err := p.planFrom(sel.From)
	if err != nil {
		return nil, err
	}

	// Scalar subqueries in WHERE become cross joins against single-row
	// (global-aggregate) subplans; the subquery expression then reads the
	// appended column.
	subqCols := make(map[*sqlparser.SubqueryExpr]int)
	if sel.Where != nil {
		var subs []*sqlparser.SubqueryExpr
		collectSubqueries(sel.Where, &subs)
		for _, sq := range subs {
			if sq.Query.Emit != nil {
				return nil, fmt.Errorf("plan: EMIT is only allowed at the top level of a query")
			}
			sub, err := p.planBody(sq.Query.Body)
			if err != nil {
				return nil, fmt.Errorf("plan: in scalar subquery: %w", err)
			}
			if sub.Schema().Len() != 1 {
				return nil, fmt.Errorf("plan: scalar subquery must return exactly one column, returns %d", sub.Schema().Len())
			}
			base := sc.width()
			node = &Join{
				Left: node, Right: sub, Kind: sqlparser.CrossJoin,
				Sch: node.Schema().Concat(sub.Schema()),
			}
			sc.add(fmt.Sprintf("$subquery%d", len(subqCols)), sub.Schema())
			subqCols[sq] = base
		}
	}

	b := &binder{sc: sc, subq: subqCols}

	// WHERE.
	if sel.Where != nil {
		if containsAgg(sel.Where) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in WHERE (use HAVING)")
		}
		cond, err := b.bind(sel.Where)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != types.KindBool && cond.Kind() != types.KindNull {
			return nil, fmt.Errorf("plan: WHERE condition must be BOOLEAN, got %s", cond.Kind())
		}
		node = &Filter{Input: node, Cond: cond}
	}

	// Expand stars into explicit items.
	items, err := expandStars(sel.Items, sc)
	if err != nil {
		return nil, err
	}

	isAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if containsAgg(it.Expr) {
			isAgg = true
		}
	}

	if isAgg {
		node, err = p.planAggregate(sel, items, node, sc, b)
		if err != nil {
			return nil, err
		}
	} else {
		node, err = planProjection(items, node, b)
		if err != nil {
			return nil, err
		}
	}

	if sel.Distinct {
		node = &Distinct{Input: node}
	}
	return node, nil
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sqlparser.SelectItem, sc *scope) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, si := range sc.items {
			if it.StarTable != "" && !strings.EqualFold(it.StarTable, si.qualifier) {
				continue
			}
			if strings.HasPrefix(si.qualifier, "$subquery") {
				continue
			}
			matched = true
			for _, c := range si.sch.Cols {
				out = append(out, sqlparser.SelectItem{
					Expr: &sqlparser.ColumnRef{Table: si.qualifier, Name: c.Name},
				})
			}
		}
		if !matched {
			return nil, fmt.Errorf("plan: no relation %q for %s.*", it.StarTable, it.StarTable)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: SELECT list is empty")
	}
	return out, nil
}

// planProjection builds the Project node for a non-aggregate SELECT list.
func planProjection(items []sqlparser.SelectItem, input Node, b *binder) (Node, error) {
	exprs := make([]Scalar, len(items))
	cols := make([]types.Column, len(items))
	inSch := input.Schema()
	for i, it := range items {
		s, err := b.bind(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = s
		cols[i] = projectedColumn(s, it, inSch, i)
	}
	return &Project{Input: input, Exprs: exprs, Sch: &types.Schema{Cols: cols}}, nil
}

// projectedColumn derives output column metadata: verbatim column references
// keep their event-time alignment (the Section 5 lesson: operators may erase
// watermark alignment; only verbatim forwarding preserves it).
func projectedColumn(s Scalar, it sqlparser.SelectItem, inSch *types.Schema, pos int) types.Column {
	col := types.Column{Name: it.Alias, Kind: s.Kind()}
	if cr, ok := s.(*ColRef); ok && cr.Idx < inSch.Len() {
		in := inSch.Cols[cr.Idx]
		col.EventTime = in.EventTime
		col.WmOffset = in.WmOffset
		col.Windowed = in.Windowed
		if col.Name == "" {
			col.Name = in.Name
		}
	}
	if col.Name == "" {
		col.Name = synthesizeName(it.Expr, pos)
	}
	return col
}

func synthesizeName(e sqlparser.Expr, pos int) string {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return x.Name
	case *sqlparser.FuncCall:
		if len(x.Args) == 1 {
			if cr, ok := x.Args[0].(*sqlparser.ColumnRef); ok {
				return cr.Name
			}
		}
		return strings.ToLower(x.Name)
	default:
		return fmt.Sprintf("EXPR$%d", pos)
	}
}

// planAggregate builds Aggregate -> (Filter having) -> Project.
func (p *Planner) planAggregate(sel *sqlparser.SelectStmt, items []sqlparser.SelectItem, input Node, sc *scope, b *binder) (Node, error) {
	inSch := input.Schema()

	// Bind grouping keys over the input scope.
	keys := make([]Scalar, len(sel.GroupBy))
	keyCols := make([]types.Column, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		if containsAgg(g) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in GROUP BY")
		}
		s, err := b.bind(g)
		if err != nil {
			return nil, err
		}
		keys[i] = s
		col := types.Column{Kind: s.Kind(), Name: fmt.Sprintf("key$%d", i)}
		if cr, ok := s.(*ColRef); ok && cr.Idx < inSch.Len() {
			in := inSch.Cols[cr.Idx]
			col = in
		} else if gc, ok := g.(*sqlparser.ColumnRef); ok {
			col.Name = gc.Name
		}
		keyCols[i] = col
	}

	// Collect distinct aggregate calls from SELECT items and HAVING.
	var aggs []AggCall
	aggIndex := make(map[string]int) // canonical form -> index in aggs
	collect := func(e sqlparser.Expr) error {
		return collectAggCalls(e, b, &aggs, aggIndex)
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, err
		}
	}

	// Extension 2 validation: grouping an unbounded input requires an
	// event-time grouping key so the watermark can complete groups.
	if input.Unbounded() && len(keys) > 0 && !p.cfg.AllowUnboundedGroupBy {
		hasEventKey := false
		for _, kc := range keyCols {
			if kc.EventTime {
				hasEventKey = true
			}
		}
		if !hasEventKey {
			return nil, fmt.Errorf("plan: GROUP BY over an unbounded stream requires at least one event-time grouping key (Extension 2); keys %v have none", describeCols(keyCols))
		}
	}

	aggSch := &types.Schema{}
	aggSch.Cols = append(aggSch.Cols, keyCols...)
	for i, a := range aggs {
		aggSch.Cols = append(aggSch.Cols, types.Column{Name: fmt.Sprintf("agg$%d", i), Kind: a.K})
	}
	aggNode := &Aggregate{Input: input, Keys: keys, Aggs: aggs, Sch: aggSch}

	// Rebind SELECT items and HAVING over the aggregate's output.
	rw := &aggRewriter{b: b, keys: keys, nKeys: len(keys), aggs: aggs, aggIndex: aggIndex, aggSch: aggSch}

	var node Node = aggNode
	if sel.Having != nil {
		cond, err := rw.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != types.KindBool && cond.Kind() != types.KindNull {
			return nil, fmt.Errorf("plan: HAVING condition must be BOOLEAN")
		}
		node = &Filter{Input: node, Cond: cond}
	}

	exprs := make([]Scalar, len(items))
	cols := make([]types.Column, len(items))
	for i, it := range items {
		s, err := rw.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = s
		cols[i] = projectedColumn(s, it, aggSch, i)
	}
	return &Project{Input: node, Exprs: exprs, Sch: &types.Schema{Cols: cols}}, nil
}

func describeCols(cols []types.Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// collectAggCalls finds aggregate FuncCalls in e, binds their arguments over
// the input scope, and registers them (deduplicated by canonical form).
func collectAggCalls(e sqlparser.Expr, b *binder, aggs *[]AggCall, index map[string]int) error {
	fc, ok := e.(*sqlparser.FuncCall)
	if ok {
		if kind, isAgg := aggKinds[fc.Name]; isAgg {
			call, canon, err := bindAggCall(fc, kind, b)
			if err != nil {
				return err
			}
			if _, seen := index[canon]; !seen {
				index[canon] = len(*aggs)
				*aggs = append(*aggs, call)
			}
			return nil
		}
	}
	// Recurse into non-aggregate composites.
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		if err := collectAggCalls(x.L, b, aggs, index); err != nil {
			return err
		}
		return collectAggCalls(x.R, b, aggs, index)
	case *sqlparser.UnaryExpr:
		return collectAggCalls(x.E, b, aggs, index)
	case *sqlparser.IsNullExpr:
		return collectAggCalls(x.E, b, aggs, index)
	case *sqlparser.BetweenExpr:
		if err := collectAggCalls(x.E, b, aggs, index); err != nil {
			return err
		}
		if err := collectAggCalls(x.Lo, b, aggs, index); err != nil {
			return err
		}
		return collectAggCalls(x.Hi, b, aggs, index)
	case *sqlparser.CaseExpr:
		if x.Operand != nil {
			if err := collectAggCalls(x.Operand, b, aggs, index); err != nil {
				return err
			}
		}
		for _, w := range x.Whens {
			if err := collectAggCalls(w.When, b, aggs, index); err != nil {
				return err
			}
			if err := collectAggCalls(w.Then, b, aggs, index); err != nil {
				return err
			}
		}
		if x.Else != nil {
			return collectAggCalls(x.Else, b, aggs, index)
		}
	case *sqlparser.CastExpr:
		return collectAggCalls(x.E, b, aggs, index)
	case *sqlparser.InExpr:
		if err := collectAggCalls(x.E, b, aggs, index); err != nil {
			return err
		}
		for _, i := range x.List {
			if err := collectAggCalls(i, b, aggs, index); err != nil {
				return err
			}
		}
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if err := collectAggCalls(a, b, aggs, index); err != nil {
				return err
			}
		}
	}
	return nil
}

// bindAggCall compiles one aggregate invocation and its canonical key.
func bindAggCall(fc *sqlparser.FuncCall, kind AggKind, b *binder) (AggCall, string, error) {
	call := AggCall{Kind: kind, Distinct: fc.Distinct}
	if fc.Star {
		if kind != AggCount {
			return call, "", fmt.Errorf("plan: %s(*) is not valid; only COUNT(*)", fc.Name)
		}
		call.Kind = AggCountStar
		call.K = types.KindInt64
		return call, "COUNT(*)", nil
	}
	if len(fc.Args) != 1 {
		return call, "", fmt.Errorf("plan: %s takes exactly one argument", fc.Name)
	}
	if containsAgg(fc.Args[0]) {
		return call, "", fmt.Errorf("plan: aggregates cannot be nested")
	}
	arg, err := b.bind(fc.Args[0])
	if err != nil {
		return call, "", err
	}
	call.Arg = arg
	switch kind {
	case AggCount:
		call.K = types.KindInt64
	case AggSum:
		if !arg.Kind().IsNumeric() && arg.Kind() != types.KindInterval && arg.Kind() != types.KindNull {
			return call, "", fmt.Errorf("plan: SUM requires a numeric argument, got %s", arg.Kind())
		}
		call.K = arg.Kind()
	case AggAvg:
		if !arg.Kind().IsNumeric() && arg.Kind() != types.KindNull {
			return call, "", fmt.Errorf("plan: AVG requires a numeric argument, got %s", arg.Kind())
		}
		call.K = types.KindFloat64
	case AggMin, AggMax:
		call.K = arg.Kind()
	}
	canon := fmt.Sprintf("%s|%v|%s", kind, fc.Distinct, arg.String())
	return call, canon, nil
}

// aggRewriter rebinds expressions over the aggregate's output row: grouping
// expressions map to key columns, aggregate calls map to aggregate columns,
// and anything else referencing input columns is an error.
type aggRewriter struct {
	b        *binder
	keys     []Scalar
	nKeys    int
	aggs     []AggCall
	aggIndex map[string]int
	aggSch   *types.Schema
}

func (r *aggRewriter) rewrite(e sqlparser.Expr) (Scalar, error) {
	// A whole expression that matches a grouping key becomes a key column
	// reference.
	if s, err := r.b.bind(e); err == nil {
		canon := s.String()
		for i, k := range r.keys {
			if k.String() == canon {
				return &ColRef{Idx: i, Name: r.aggSch.Cols[i].Name, K: r.aggSch.Cols[i].Kind}, nil
			}
		}
		if IsConst(s) {
			return s, nil
		}
	}
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if kind, isAgg := aggKinds[x.Name]; isAgg {
			_, canon, err := bindAggCall(x, kind, r.b)
			if err != nil {
				return nil, err
			}
			idx, ok := r.aggIndex[canon]
			if !ok {
				return nil, fmt.Errorf("plan: internal: aggregate %s not collected", canon)
			}
			pos := r.nKeys + idx
			return &ColRef{Idx: pos, Name: r.aggSch.Cols[pos].Name, K: r.aggSch.Cols[pos].Kind}, nil
		}
		args := make([]Scalar, len(x.Args))
		for i, a := range x.Args {
			s, err := r.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return NewCall(x.Name, args)
	case *sqlparser.BinaryExpr:
		l, err := r.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := r.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return NewBinOp(x.Op, l, rr)
	case *sqlparser.UnaryExpr:
		in, err := r.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			return &Neg{E: in}, nil
		}
		return &Not{E: in}, nil
	case *sqlparser.IsNullExpr:
		in, err := r.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: in, Not: x.Not}, nil
	case *sqlparser.CastExpr:
		in, err := r.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &Cast{E: in, To: x.To}, nil
	case *sqlparser.CaseExpr:
		cb := &caseRewriteBinder{r}
		return cb.bindCase(x)
	case *sqlparser.Literal:
		return &Const{Val: x.Val}, nil
	case *sqlparser.ColumnRef:
		return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", x)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T in aggregate query", e)
	}
}

// caseRewriteBinder adapts aggRewriter for CASE desugaring reuse.
type caseRewriteBinder struct {
	r *aggRewriter
}

func (cb *caseRewriteBinder) bindCase(x *sqlparser.CaseExpr) (Scalar, error) {
	c := &Case{}
	var operand Scalar
	var err error
	if x.Operand != nil {
		operand, err = cb.r.rewrite(x.Operand)
		if err != nil {
			return nil, err
		}
	}
	resultKind := types.KindNull
	for _, w := range x.Whens {
		cond, err := cb.r.rewrite(w.When)
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond, err = NewBinOp(sqlparser.OpEq, operand, cond)
			if err != nil {
				return nil, err
			}
		}
		then, err := cb.r.rewrite(w.Then)
		if err != nil {
			return nil, err
		}
		if resultKind == types.KindNull {
			resultKind = then.Kind()
		}
		c.Whens = append(c.Whens, CaseWhen{When: cond, Then: then})
	}
	if x.Else != nil {
		c.Else, err = cb.r.rewrite(x.Else)
		if err != nil {
			return nil, err
		}
		if resultKind == types.KindNull {
			resultKind = c.Else.Kind()
		}
	}
	c.K = resultKind
	return c, nil
}
